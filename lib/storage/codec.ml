(* Binary codec shared by the WAL record format and checkpoint images
   (DESIGN §9).  Little-endian, length-prefixed strings, one tag byte per
   variant.  Deliberately boring: the encoding must stay stable across
   sessions because recovery reads images written by earlier runs.

   The CRC32 is the IEEE 802.3 reflected algorithm driven by the classic
   256-entry table, one lookup per byte.  The table is an immutable string
   (four little-endian bytes per entry) built once at module init, so there
   is no module-level mutable state for vmlint's D1 rule to object to.  The
   bitwise loop it replaced cost about 80 ns/byte, and a checkpoint image is
   checksummed on every write and every read, which made the CRC the
   largest single cost of a durable writer (DESIGN §9). *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* ------------------------------------------------------------------ *)
(* CRC32 (IEEE, reflected, init/xorout 0xFFFFFFFF)                      *)
(* ------------------------------------------------------------------ *)

let crc32_poly = 0xEDB88320

let crc32_table =
  let entry n =
    let c = ref n in
    for _ = 1 to 8 do
      c := if !c land 1 = 1 then (!c lsr 1) lxor crc32_poly else !c lsr 1
    done;
    !c
  in
  String.init 1024 (fun i -> Char.chr ((entry (i / 4) lsr (8 * (i land 3))) land 0xFF))

let crc32_entry i = Int32.to_int (String.get_int32_le crc32_table (4 * i)) land 0xFFFFFFFF

(* CRC of [b.[pos] .. b.[pos + len - 1]]; bounds are the caller's. *)
let crc32_bytes ~init b ~pos ~len =
  let crc = ref init in
  for i = pos to pos + len - 1 do
    crc := (!crc lsr 8) lxor crc32_entry ((!crc lxor Char.code (Bytes.unsafe_get b i)) land 0xFF)
  done;
  !crc lxor 0xFFFFFFFF land 0xFFFFFFFF

let crc32_sub s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then invalid_arg "Codec.crc32_sub";
  crc32_bytes ~init:0xFFFFFFFF (Bytes.unsafe_of_string s) ~pos ~len

let crc32 ?(init = 0xFFFFFFFF) s =
  crc32_bytes ~init (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

(* ------------------------------------------------------------------ *)
(* Writer                                                               *)
(* ------------------------------------------------------------------ *)

type writer = Buffer.t

let writer () = Buffer.create 256
let contents w = Buffer.contents w

let u8 w n =
  if n < 0 || n > 0xFF then invalid_arg "Codec.u8: out of range";
  Buffer.add_char w (Char.chr n)

let u32 w n =
  if n < 0 || n > 0xFFFFFFFF then invalid_arg "Codec.u32: out of range";
  Buffer.add_char w (Char.chr (n land 0xFF));
  Buffer.add_char w (Char.chr ((n lsr 8) land 0xFF));
  Buffer.add_char w (Char.chr ((n lsr 16) land 0xFF));
  Buffer.add_char w (Char.chr ((n lsr 24) land 0xFF))

(* The writers below never box: an [int64] crossing a function call is
   allocated, and these run once per value of every logged tuple and every
   checkpoint row.  [asr] replicates the sign bit, so bytes 0-7 of a native
   int are those of its sign-extended [Int64.of_int]. *)
let i64 w n =
  for i = 0 to 7 do
    Buffer.add_char w (Char.chr ((n asr (8 * i)) land 0xFF))
  done

let f64 w x =
  let bits = Int64.bits_of_float x in
  u32 w (Int64.to_int (Int64.logand bits 0xFFFFFFFFL));
  u32 w (Int64.to_int (Int64.shift_right_logical bits 32))

let str w s =
  u32 w (String.length s);
  Buffer.add_string w s

let bool w b = u8 w (if b then 1 else 0)

let option w f = function
  | None -> u8 w 0
  | Some x ->
      u8 w 1;
      f w x

let rec list_items w f = function
  | [] -> ()
  | x :: rest ->
      f w x;
      list_items w f rest

let list w f xs =
  u32 w (List.length xs);
  list_items w f xs

let array w f xs =
  u32 w (Array.length xs);
  for i = 0 to Array.length xs - 1 do
    f w (Array.unsafe_get xs i)
  done

(* ------------------------------------------------------------------ *)
(* Reader                                                               *)
(* ------------------------------------------------------------------ *)

type reader = { data : string; mutable pos : int }

let reader data = { data; pos = 0 }
let remaining r = String.length r.data - r.pos
let at_end r = remaining r = 0

let need r n =
  if remaining r < n then
    corrupt "truncated input: need %d bytes at offset %d, have %d" n r.pos (remaining r)

let r_u8 r =
  need r 1;
  let c = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  c

let r_u32 r =
  need r 4;
  let b i = Char.code r.data.[r.pos + i] in
  let n = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
  r.pos <- r.pos + 4;
  n

let r_i64_bits r =
  need r 8;
  let n = ref 0L in
  for i = 7 downto 0 do
    n := Int64.logor (Int64.shift_left !n 8)
           (Int64.of_int (Char.code r.data.[r.pos + i]))
  done;
  r.pos <- r.pos + 8;
  !n

let r_i64 r = Int64.to_int (r_i64_bits r)
let r_f64 r = Int64.float_of_bits (r_i64_bits r)

let r_str r =
  let len = r_u32 r in
  need r len;
  let s = String.sub r.data r.pos len in
  r.pos <- r.pos + len;
  s

let r_bool r =
  match r_u8 r with
  | 0 -> false
  | 1 -> true
  | n -> corrupt "bad bool tag %d at offset %d" n (r.pos - 1)

let r_option r f = match r_u8 r with
  | 0 -> None
  | 1 -> Some (f r)
  | n -> corrupt "bad option tag %d at offset %d" n (r.pos - 1)

let r_list r f =
  let n = r_u32 r in
  if n > remaining r then corrupt "implausible list length %d at offset %d" n r.pos;
  List.init n (fun _ -> f r)

let r_array r f =
  let n = r_u32 r in
  if n > remaining r then corrupt "implausible array length %d at offset %d" n r.pos;
  Array.init n (fun _ -> f r)

(* ------------------------------------------------------------------ *)
(* Value / Tuple / Schema                                               *)
(* ------------------------------------------------------------------ *)

let value w (v : Value.t) =
  match v with
  | Value.Null -> u8 w 0
  | Value.Bool b ->
      u8 w 1;
      bool w b
  | Value.Int n ->
      u8 w 2;
      i64 w n
  | Value.Float x ->
      u8 w 3;
      f64 w x
  | Value.Str s ->
      u8 w 4;
      str w s

let r_value r : Value.t =
  match r_u8 r with
  | 0 -> Value.Null
  | 1 -> Value.Bool (r_bool r)
  | 2 -> Value.Int (r_i64 r)
  | 3 -> Value.Float (r_f64 r)
  | 4 -> Value.Str (r_str r)
  | n -> corrupt "bad Value tag %d at offset %d" n (r.pos - 1)

let tuple w (t : Tuple.t) =
  i64 w (Tuple.tid t);
  array w value (Tuple.values t)

let r_tuple r : Tuple.t =
  let tid = r_i64 r in
  let values = r_array r r_value in
  Tuple.make ~tid values

let column_type w (ty : Schema.column_type) =
  u8 w
    (match ty with
    | Schema.T_int -> 0
    | Schema.T_float -> 1
    | Schema.T_string -> 2
    | Schema.T_bool -> 3)

let r_column_type r : Schema.column_type =
  match r_u8 r with
  | 0 -> Schema.T_int
  | 1 -> Schema.T_float
  | 2 -> Schema.T_string
  | 3 -> Schema.T_bool
  | n -> corrupt "bad column_type tag %d at offset %d" n (r.pos - 1)

let schema w (s : Schema.t) =
  str w (Schema.name s);
  list w
    (fun w (c : Schema.column) ->
      str w c.Schema.name;
      column_type w c.Schema.ty)
    (Schema.columns s);
  u32 w (Schema.tuple_bytes s);
  (* The key is stored by column *name* so [Schema.make] can revalidate it on
     decode rather than trusting a raw index. *)
  str w (Schema.column_name s (Schema.key_index s))

let r_schema r : Schema.t =
  let name = r_str r in
  let columns =
    r_list r (fun r ->
        let cname = r_str r in
        let ty = r_column_type r in
        { Schema.name = cname; ty })
  in
  let tuple_bytes = r_u32 r in
  let key = r_str r in
  match Schema.make ~name ~columns ~tuple_bytes ~key with
  | s -> s
  | exception Invalid_argument msg -> corrupt "bad schema: %s" msg

(* ------------------------------------------------------------------ *)
(* Framing: [u32 payload_len][u32 crc32(payload)][payload]              *)
(* ------------------------------------------------------------------ *)

type frame_error = Torn | Bad_crc

let frame_header_bytes = 8
let header_placeholder = String.make frame_header_bytes '\000'

(* The whole frame, after an optional [prefix], is built in one buffer: the
   header is reserved up front and patched once the payload is encoded, so
   the payload is copied exactly once (buffer to result). *)
let framed ?(prefix = "") ?(size_hint = 256) encode =
  let w = Buffer.create (String.length prefix + frame_header_bytes + size_hint) in
  Buffer.add_string w prefix;
  Buffer.add_string w header_placeholder;
  encode w;
  let b = Buffer.to_bytes w in
  let header = String.length prefix in
  let pos = header + frame_header_bytes in
  let len = Bytes.length b - pos in
  if len > 0xFFFFFFFF then invalid_arg "Codec.framed: payload too large";
  Bytes.set_int32_le b header (Int32.of_int len);
  Bytes.set_int32_le b (header + 4) (Int32.of_int (crc32_bytes ~init:0xFFFFFFFF b ~pos ~len));
  Bytes.unsafe_to_string b

let frame payload =
  framed ~size_hint:(String.length payload) (fun w -> Buffer.add_string w payload)

(* Reads one frame starting at [r.pos].  On success advances past the frame
   and returns the payload.  [Error Torn] means the remaining bytes cannot
   hold a whole frame (clean truncation); [Error Bad_crc] means the frame is
   complete but its checksum fails (bit rot / torn overwrite).  In both
   error cases [r.pos] is left unchanged so the caller can record where the
   valid prefix ends. *)
let read_frame r =
  let start = r.pos in
  if remaining r < 8 then Error Torn
  else begin
    let len = r_u32 r in
    let crc = r_u32 r in
    if remaining r < len then begin
      r.pos <- start;
      Error Torn
    end
    else begin
      if crc32_sub r.data ~pos:r.pos ~len <> crc then begin
        r.pos <- start;
        Error Bad_crc
      end
      else begin
        let payload = String.sub r.data r.pos len in
        r.pos <- r.pos + len;
        Ok payload
      end
    end
  end
