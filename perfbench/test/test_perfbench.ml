(* The benchmark's own tests, on shrunken workloads: every workload runs
   and checks its answers, the traced run reproduces the untraced one,
   every named metric prints with its unit, and an altered answer is
   counted as a failure. *)

open Perfbench

let run ?(trace = false) ?(tamper = false) workload =
  Bench.run { Bench.workload; seed = 7; seconds = 0.; trace; size = Bench.Tiny; tamper }

let names_units res = List.map (fun (n, u, _) -> (n, u)) res.Bench.metrics

let each_workload f =
  List.map
    (fun (name, w) -> Alcotest.test_case name `Quick (fun () -> f name w))
    Bench.workloads

let smoke name w =
  let res = run w in
  Alcotest.(check int) (name ^ " failed") 0 res.Bench.failed;
  Alcotest.(check bool) (name ^ " correct") true res.Bench.correct;
  Alcotest.(check (list (pair string string)))
    (name ^ " end-to-end metrics and units")
    Bench.end_to_end (names_units res);
  List.iter
    (fun (m, _, v) ->
      if not (Float.is_finite v && v > 0.) then
        Alcotest.failf "%s: %s = %g, expected a positive number" name m v)
    res.Bench.metrics

let traced name w =
  let res = run ~trace:true w in
  (* The traced rounds must reproduce the untraced ones' digests and
     modeled totals; any difference is a failed check. *)
  Alcotest.(check int) (name ^ " failed") 0 res.Bench.failed;
  Alcotest.(check (list (pair string string)))
    (name ^ " per-layer metrics and units")
    Bench.per_layer (names_units res);
  let has prefix = List.exists (String.starts_with ~prefix) res.Bench.lines in
  Alcotest.(check bool) (name ^ " traced equals untraced") true
    (has "check ok    traced rounds reproduce");
  Alcotest.(check bool) (name ^ " observer table") true (res.Bench.observer <> []);
  let coverage =
    List.find_map
      (fun (m, _, v) -> if String.equal m "trace.coverage" then Some v else None)
      res.Bench.metrics
  in
  match coverage with
  | Some c when c > 0. && c <= 1. -> ()
  | _ -> Alcotest.failf "%s: trace.coverage missing or outside (0, 1]" name

let tamper name w =
  let res = run ~tamper:true w in
  Alcotest.(check bool) (name ^ " tampered answer is a failure") true (res.Bench.failed > 0);
  Alcotest.(check bool) (name ^ " not correct") false res.Bench.correct

(* BENCHMARK.json names exactly the metrics the benchmark prints, with the
   same units. *)
let benchmark_json () =
  let text = In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all in
  let find_from i sub =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length text then None
      else if String.equal (String.sub text i n) sub then Some (i + n)
      else go (i + 1)
    in
    go i
  in
  List.iter
    (fun (name, unit) ->
      match find_from 0 (Printf.sprintf "\"name\": %S" name) with
      | None -> Alcotest.failf "BENCHMARK.json does not name %s" name
      | Some i -> (
          match find_from i "\"unit\": " with
          | Some j when find_from j (Printf.sprintf "%S" unit) = Some (j + String.length unit + 2) -> ()
          | _ -> Alcotest.failf "BENCHMARK.json gives %s another unit than %s" name unit))
    (Bench.end_to_end @ Bench.per_layer)

let () =
  Alcotest.run "perfbench"
    [
      ("smoke", each_workload smoke);
      ("traced", each_workload traced);
      ("tamper", each_workload tamper);
      ("metrics", [ Alcotest.test_case "BENCHMARK.json" `Quick benchmark_json ]);
    ]
