(* Deferred maintenance across readily-ignorable updates (DESIGN §4).

   A readily-ignorable (RIU) change writes no column the view reads; in
   Model 1 that is an [amount] redraw that lands on the same value.  The
   deferred strategy's A/D entries for one refresh window are netted by
   [Hr.net_changes], which cancels an append against a later delete of the
   same tuple instance — so the entries an RIU change leaves must carry
   their images' real view membership, or the cancellation drops a row
   (v1 -> v2 -RIU-> v2') or leaves a stale one (v1 -RIU-> v1' -> v2).
   These tests pin both chains, the seeds on which they first showed, and
   the property deferred (refreshed every k txns) ≡ immediate ≡ recompute;
   and they check that RIU changes still cost no screening and no refresh
   I/O. *)

open Core

let amount_col = 2 (* R(id, pval, amount, note) *)

let canon bag =
  let acc = ref [] in
  Bag.iter bag (fun tuple count -> acc := (Tuple.value_key tuple, count) :: !acc);
  List.sort compare !acc

let full_range = { Strategy.q_lo = Strategy.min_sentinel; q_hi = Strategy.max_sentinel }

(* ------------------------------------------------------------------ *)
(* The two chains, by hand                                             *)
(* ------------------------------------------------------------------ *)

let tiny = { (Experiment.scale Params.defaults 0.001) with Params.k_updates = 4.; q_queries = 1. }

(* A Model-1 engine over 100 tuples, and a tuple of the initial population
   that lies in the view. *)
let chain_env () =
  let setup = Experiment.model1_setup ~seed:3 tiny in
  let env = Experiment.model1_env tiny setup in
  let view = env.Strategy_sp.view in
  let in_view tuple = Bag.total_size (Delta.recompute_sp ~tids:(Tuple.source ()) view [ tuple ]) > 0 in
  (env, setup, List.find in_view env.Strategy_sp.initial)

let tids = Tuple.source ~first:5_000_000 ()
let riu tuple = Tuple.with_tid tuple (Tuple.next tids)
let redraw tuple x = Tuple.with_tid (Tuple.set tuple amount_col (Value.Float x)) (Tuple.next tids)

(* Run [txns] through deferred (one refresh at the end) and immediate
   maintenance on fresh engines; their final views must agree. *)
let check_chain ~what txns =
  let final which =
    let _, setup, _ = chain_env () in
    let env = Experiment.model1_env tiny setup in
    let s = Experiment.model1_strategy_of env which in
    List.iter s.Strategy.handle_transaction txns;
    ignore (s.Strategy.answer_query full_range);
    canon (s.Strategy.view_contents ())
  in
  Alcotest.(check (list (pair string int))) what (final `Immediate) (final `Deferred)

let test_riu_then_update () =
  let _, _, v1 = chain_env () in
  let v1' = riu v1 in
  let v2 = redraw v1' 123456. in
  check_chain ~what:"v1 -RIU-> v1' -> v2 leaves no stale row"
    [ [ Strategy.modify ~old_tuple:v1 ~new_tuple:v1' ]; [ Strategy.modify ~old_tuple:v1' ~new_tuple:v2 ] ]

let test_update_then_riu () =
  let _, _, v1 = chain_env () in
  let v2 = redraw v1 123456. in
  let v2' = riu v2 in
  let v3 = redraw v2' 654321. in
  (* the trailing update of v2' is the delete that used to raise *)
  check_chain ~what:"v1 -> v2 -RIU-> v2' keeps v2's row"
    [ [ Strategy.modify ~old_tuple:v1 ~new_tuple:v2 ]; [ Strategy.modify ~old_tuple:v2 ~new_tuple:v2' ] ];
  check_chain ~what:"and a later update of it finds the row"
    [
      [ Strategy.modify ~old_tuple:v1 ~new_tuple:v2 ];
      [ Strategy.modify ~old_tuple:v2 ~new_tuple:v2' ];
      [ Strategy.modify ~old_tuple:v2' ~new_tuple:v3 ];
    ]

(* An RIU change alone costs what it always did: no stage-2 test, no
   [Screen] charge, and a refresh that touches the stored view no more
   than a refresh of an empty window. *)
let test_riu_is_free () =
  let run txn =
    let _, setup, _ = chain_env () in
    let env = Experiment.model1_env tiny setup in
    let s = Experiment.model1_strategy_of env `Deferred in
    s.Strategy.handle_transaction txn;
    ignore (s.Strategy.answer_query full_range);
    Ctx.meter env.Strategy_sp.ctx
  in
  let _, _, v1 = chain_env () in
  let with_riu = run [ Strategy.modify ~old_tuple:v1 ~new_tuple:(riu v1) ] in
  let empty = run [] in
  Alcotest.(check int) "no screening test" 0 (Cost_meter.predicate_tests with_riu Cost_meter.Screen);
  List.iter
    (fun cat ->
      Alcotest.(check int)
        (Cost_meter.category_name cat ^ " writes as for an empty window")
        (Cost_meter.writes empty cat) (Cost_meter.writes with_riu cat))
    [ Cost_meter.Refresh; Cost_meter.Query ];
  Alcotest.(check (float 0.)) "refresh cost as for an empty window"
    (Cost_meter.cost empty Cost_meter.Refresh) (Cost_meter.cost with_riu Cost_meter.Refresh)

(* ------------------------------------------------------------------ *)
(* Seeds and the property                                              *)
(* ------------------------------------------------------------------ *)

(* Model 1 at N tuples, l = 25, f = 0.1, k = 1000 txns. *)
let params n =
  {
    Params.defaults with
    Params.n_tuples = float_of_int n;
    k_updates = 1000.;
    l_per_txn = 25.;
    q_queries = 125.;
    f = 0.1;
  }

(* Final view of one strategy over the stream's transactions; deferred
   refreshes (a full-range query) after every [every]-th txn. *)
let final_view ~n ~every seed which =
  let p = params n in
  let setup = Experiment.model1_setup ~seed p in
  let s = Experiment.model1_strategy_of (Experiment.model1_env p setup) which in
  let txns = ref 0 in
  List.iter
    (function
      | Stream.Txn changes ->
          s.Strategy.handle_transaction changes;
          incr txns;
          if !txns mod every = 0 then ignore (s.Strategy.answer_query full_range)
      | Stream.Query _ -> ())
    setup.Experiment.ms_ops;
  ignore (s.Strategy.answer_query full_range);
  canon (s.Strategy.view_contents ())

let check_seed ~n ~every seed =
  let expect = final_view ~n ~every seed `Immediate in
  Alcotest.(check (list (pair string int)))
    (Printf.sprintf "seed %d: deferred every %d = immediate" seed every)
    expect
    (final_view ~n ~every seed `Deferred)

(* Seeds on which deferred refreshed every 8 (every 4 for the last)
   diverged from immediate maintenance at N = 5,000: two wrong final
   views, one refresh that raised "delete of absent view tuple", and the
   seed perfbench/README.md reproduces the defect with. *)
let test_pinned_seeds () =
  List.iter
    (fun (seed, every) -> check_seed ~n:5000 ~every seed)
    [
      (698498458247258543, 8);
      (4362580663213820834, 8);
      (3615070309444667556, 8);
      (1296941515213778126, 4);
    ]

let test_property () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"deferred every k = immediate = recompute (N = 5000)" ~count:4
       QCheck.(pair (int_bound 1_000_000) (int_range 1 16))
       (fun (seed, every) ->
         let deferred = final_view ~n:5000 ~every seed `Deferred in
         deferred = final_view ~n:5000 ~every seed `Immediate
         && deferred = final_view ~n:5000 ~every seed `Recompute))

let suites =
  [
    ( "riu.chains",
      [
        Alcotest.test_case "riu then update" `Quick test_riu_then_update;
        Alcotest.test_case "update then riu" `Quick test_update_then_riu;
        Alcotest.test_case "riu stays free" `Quick test_riu_is_free;
      ] );
    ( "riu.seeds",
      [
        Alcotest.test_case "pinned seeds" `Slow test_pinned_seeds;
        Alcotest.test_case "deferred = immediate = recompute (qcheck)" `Slow test_property;
      ] );
  ]
