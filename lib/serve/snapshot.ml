open Vmat_storage
module Checkpoint = Vmat_wal.Checkpoint

type t = {
  sn_epoch : int;
  sn_txns : int;
  sn_cluster_col : int;
  sn_rows : (Tuple.t * int) array;
      (* ascending (clustering value, value key); one entry per distinct
         value key, duplicate counts merged *)
}

let compare_rows col (a, _) (b, _) =
  let c = Value.compare (Tuple.get a col) (Tuple.get b col) in
  if c <> 0 then c else String.compare (Tuple.value_key a) (Tuple.value_key b)

(* Canonicalize: sort by (clustering value, value key), then merge entries
   with equal value keys by summing their duplicate counts, so the snapshot
   is a well-formed bag no matter how the strategy chunked its answer. *)
let of_rows ~cluster_col ~epoch ~txns rows =
  let arr = Array.of_list rows in
  Array.sort (compare_rows cluster_col) arr;
  let merged = ref [] in
  Array.iter
    (fun (tuple, count) ->
      match !merged with
      | (prev, prev_count) :: rest when Tuple.value_key prev = Tuple.value_key tuple ->
          merged := (prev, prev_count + count) :: rest
      | _ -> merged := (tuple, count) :: !merged)
    arr;
  {
    sn_epoch = epoch;
    sn_txns = txns;
    sn_cluster_col = cluster_col;
    sn_rows = Array.of_list (List.rev !merged);
  }

let of_image ~cluster_col ~epoch (im : Checkpoint.image) =
  of_rows ~cluster_col ~epoch ~txns:im.Checkpoint.ck_op_index im.Checkpoint.ck_view

let epoch t = t.sn_epoch
let txns t = t.sn_txns
let cluster_col t = t.sn_cluster_col
let size t = Array.length t.sn_rows
let rows t = Array.to_list t.sn_rows

(* First index whose clustering value is not below [bound] ([strict]:
   not at or below it); the array length when there is none. *)
let search t ~strict bound =
  let rec go l r =
    if l >= r then l
    else
      let mid = (l + r) / 2 in
      let v, _ = t.sn_rows.(mid) in
      let c = Value.compare (Tuple.get v t.sn_cluster_col) bound in
      if c < 0 || (strict && c = 0) then go (mid + 1) r else go l mid
  in
  go 0 (Array.length t.sn_rows)

(* Both ends by binary search, then the stored pairs are consed from the
   upper bound down: the answer shares every row with the snapshot and
   allocates one list cell per row, nothing else.  Readers run beside the
   writer, and in OCaml 5 every minor GC stops both domains, so reader
   allocation is paid in writer and reader latency alike (DESIGN §10). *)
let query t ~lo ~hi =
  let first = search t ~strict:false lo in
  let rec collect i acc = if i < first then acc else collect (i - 1) (t.sn_rows.(i) :: acc) in
  collect (search t ~strict:true hi - 1) []

(* FNV-1a, hand-rolled so the digest is deterministic by construction
   (Hashtbl.hash is banned by vmlint rule D2). *)
let fnv1a s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

(* Digests hash value keys and duplicate counts, never tuple ids: replaying
   the same logical history mints fresh tids, so tids are not stable across
   a replay, but the value-keyed bag is. *)
let digest_rows rows =
  let buf = Buffer.create 256 in
  List.iter
    (fun (tuple, count) ->
      Buffer.add_string buf (Tuple.value_key tuple);
      Buffer.add_char buf '#';
      Buffer.add_string buf (string_of_int count);
      Buffer.add_char buf ';')
    rows;
  Printf.sprintf "%016Lx:%d" (fnv1a (Buffer.contents buf)) (Buffer.length buf)

let digest t = digest_rows (Array.to_list t.sn_rows)
