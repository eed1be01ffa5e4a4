(* Nanosecond monotonic clock.  The library's own [Wallclock] reads
   [gettimeofday] in 1 us steps, too coarse for 5 us reads; the benchmark
   times its own spans and per-operation latencies with this clock. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let us_since t0 = float_of_int (now_ns () - t0) /. 1e3
let s_since t0 = float_of_int (now_ns () - t0) /. 1e9
