(* The benchmark executable: runs one workload and prints a human-readable
   report, a provenance line, and as its last line one JSON object with
   the keys correct, attempted, failed and metrics.  run.py builds it and
   calls it as

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones. *)

open Perfbench

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let commit = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME serve-durable | replay | fleet");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) metrics");
      ("--commit", Arg.Set_string commit, "ID source revision recorded in the provenance line");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match Bench.workload_of_string !workload with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace must be 0 or 1"; exit 2);
  let o =
    {
      Bench.workload = w;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      size = Bench.Full;
      tamper = false;
    }
  in
  let res = Bench.run o in
  List.iter print_endline res.Bench.lines;
  print_endline (Bench.provenance_json o res ~commit:!commit);
  if not (List.is_empty res.Bench.observer) then
    print_endline (Bench.observer_json o res);
  print_endline (Bench.result_json res)
