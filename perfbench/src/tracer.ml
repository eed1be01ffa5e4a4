(* Spans recorded by the benchmark around its calls into the library's
   public functions.  A span keeps its start and end on the monotonic
   clock, its parent (the span open when it began), the bytes the calling
   domain allocated and the modeled cost (excluding [Base]) its meter
   accrued.  Spans stay in memory and are aggregated when the run ends; a
   span's self time is its duration minus its children's. *)

open Vmat_storage

type t = {
  mutable n : int;
  mutable name : string array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable alloc : float array;
  mutable modeled : float array;
  mutable current : int;
}

let create () =
  let c = 4096 in
  {
    n = 0;
    name = Array.make c "";
    start = Array.make c 0;
    stop = Array.make c 0;
    parent = Array.make c (-1);
    alloc = Array.make c 0.;
    modeled = Array.make c 0.;
    current = -1;
  }

let grow t =
  let c = 2 * Array.length t.start in
  let extend a fill =
    let b = Array.make c fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.name <- extend t.name "";
  t.start <- extend t.start 0;
  t.stop <- extend t.stop 0;
  t.parent <- extend t.parent (-1);
  t.alloc <- extend t.alloc 0.;
  t.modeled <- extend t.modeled 0.

let modeled_of = function
  | None -> 0.
  | Some m -> Cost_meter.total_cost ~excluding:[ Cost_meter.Base ] m

(* [enter] opens a span under the innermost open one; [leave] closes it and
   names it, so a caller can classify a call by what it did (a checkpoint,
   a refresh) after it returned. *)
let enter t meter =
  if t.n = Array.length t.start then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.parent.(i) <- t.current;
  t.current <- i;
  t.modeled.(i) <- modeled_of meter;
  t.alloc.(i) <- Gc.allocated_bytes ();
  t.start.(i) <- Clock.now_ns ();
  i

let leave t meter i name =
  t.stop.(i) <- Clock.now_ns ();
  t.alloc.(i) <- Gc.allocated_bytes () -. t.alloc.(i);
  t.modeled.(i) <- modeled_of meter -. t.modeled.(i);
  t.name.(i) <- name;
  t.current <- t.parent.(i)

let rename t i name = t.name.(i) <- name

let span t meter name f =
  let i = enter t meter in
  let r = f () in
  leave t meter i name;
  r

let duration_ns t i = t.stop.(i) - t.start.(i)

type stat = {
  calls : int;
  self_ns : float;
  self_alloc : float;
  self_modeled : float;
}

let zero = { calls = 0; self_ns = 0.; self_alloc = 0.; self_modeled = 0. }

(* Per span name: calls and self time, self allocation and self modeled
   cost, sorted by name. *)
let summary t =
  let child_ns = Array.make t.n 0. in
  let child_alloc = Array.make t.n 0. in
  let child_modeled = Array.make t.n 0. in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then begin
      child_ns.(p) <- child_ns.(p) +. float_of_int (duration_ns t i);
      child_alloc.(p) <- child_alloc.(p) +. t.alloc.(i);
      child_modeled.(p) <- child_modeled.(p) +. t.modeled.(i)
    end
  done;
  let by_name = Hashtbl.create 32 in
  for i = 0 to t.n - 1 do
    let s = Option.value ~default:zero (Hashtbl.find_opt by_name t.name.(i)) in
    Hashtbl.replace by_name t.name.(i)
      {
        calls = s.calls + 1;
        self_ns = s.self_ns +. float_of_int (duration_ns t i) -. child_ns.(i);
        self_alloc = s.self_alloc +. t.alloc.(i) -. child_alloc.(i);
        self_modeled = s.self_modeled +. t.modeled.(i) -. child_modeled.(i);
      }
  done;
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [])

(* Total time inside root spans: the sum of every span's self time. *)
let covered_ns t =
  let c = ref 0 in
  for i = 0 to t.n - 1 do
    if t.parent.(i) < 0 then c := !c + duration_ns t i
  done;
  float_of_int !c
