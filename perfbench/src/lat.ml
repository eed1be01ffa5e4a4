(* A growable buffer of samples: latencies in microseconds, or bytes
   allocated.  Adding a sample never allocates except when the buffer
   doubles. *)

type t = { mutable data : float array; mutable n : int }

let create () = { data = Array.make 1024 0.; n = 0 }

let add t x =
  if t.n = Array.length t.data then begin
    let d = Array.make (2 * t.n) 0. in
    Array.blit t.data 0 d 0 t.n;
    t.data <- d
  end;
  t.data.(t.n) <- x;
  t.n <- t.n + 1

let count t = t.n

(* The same interpolated quantile the library's reports use. *)
let quantile t q = Vmat_util.Stats.quantile q (Array.to_list (Array.sub t.data 0 t.n))
