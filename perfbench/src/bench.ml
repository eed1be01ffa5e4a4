(* The benchmark's three workloads, their answer oracles, and the metrics
   they report.  Every workload is a closed loop driven from this process
   through the library's public API; README.md says why each exists and
   which layer each metric belongs to. *)

open Vmat_storage
module Params = Vmat_cost.Params
module Experiment = Vmat_workload.Experiment
module Runner = Vmat_workload.Runner
module Stream = Vmat_workload.Stream
module Dataset = Vmat_workload.Dataset
module Parallel = Vmat_workload.Parallel
module Strategy = Vmat_view.Strategy
module Strategy_sp = Vmat_view.Strategy_sp
module View_def = Vmat_view.View_def
module Server = Vmat_serve.Server
module Snapshot = Vmat_serve.Snapshot
module Mvcc = Vmat_wal.Mvcc
module Wal = Vmat_wal.Wal
module Durable = Vmat_wal.Durable
module Device = Vmat_wal.Device
module Hr = Vmat_hypo.Hr
module Bloom = Vmat_util.Bloom
module Rng = Vmat_util.Rng
module Stats = Vmat_util.Stats
module Bag = Vmat_relalg.Bag
module Fleet = Vmat_fleet.Fleet
module Fleet_report = Vmat_fleet.Report
module Spec = Vmat_fleet.Spec
module Advisor = Vmat_fleet.Advisor

type workload = Serve_durable | Replay | Fleet_wl

let workloads =
  [
    ("serve-durable", Serve_durable);
    ("replay", Replay);
    ("fleet", Fleet_wl);
  ]

let workload_of_string s = List.assoc_opt s workloads

(* [Tiny] shrinks every workload for the benchmark's own tests; the
   benchmark itself always runs [Full]. *)
type size = Full | Tiny

type opts = {
  workload : workload;
  seed : int;
  seconds : float;
  trace : bool;
  size : size;
  tamper : bool;
      (** test hook: alter one answer so the oracles must report a failure *)
}

(* ------------------------------------------------------------------ *)
(* Metric names                                                        *)
(* ------------------------------------------------------------------ *)

let end_to_end =
  [
    ("setup_s", "s");
    ("txn_per_s", "txn/s");
    ("ops_per_s", "op/s");
    ("txn_p50_us", "us");
    ("txn_p99_us", "us");
    ("query_p50_us", "us");
    ("query_p99_us", "us");
    ("writer_alloc_b_per_txn", "B");
    ("alloc_b_per_op", "B");
    ("peak_rss_mb", "MB");
    ("modeled_ms_per_op", "ms");
  ]

let replay_strategies : Experiment.model1_strategy list = [ `Deferred; `Immediate; `Clustered ]
let replay_names = [ "deferred"; "immediate"; "qmod-clustered" ]

(* Every span the traced runs record, named <layer>.<function>. *)
let span_names =
  [ "view.txn" ]
  @ List.map (fun s -> "view.txn." ^ s) replay_names
  @ List.map (fun s -> "view.query." ^ s) replay_names
  @ [
      "view.publish_scan";
      "serve.snapshot_build";
      "serve.publish";
      "serve.read";
      "wal.log";
      "wal.checkpoint";
      "fleet.txn";
      "fleet.query";
      "fleet.query_refresh";
      "fleet.advise";
    ]

let span_stats =
  [
    ("calls", "count");
    ("us_per_call", "us");
    ("share", "ratio");
    ("alloc_b_per_call", "B");
    ("modeled_ms_per_call", "ms");
  ]

let layer_counts =
  [
    ("storage.reads_per_op", "count");
    ("storage.writes_per_op", "count");
    ("storage.pool_hit_ratio", "ratio");
    ("hypo.bloom_fp_ratio", "ratio");
    ("hypo.ad_entries_per_refresh", "count");
    ("view.stage2_tests_per_txn", "count");
    ("wal.forces_per_txn", "count");
    ("wal.bytes_per_txn", "B");
    ("wal.checkpoints", "count");
    ("serve.rows_per_snapshot", "count");
    ("serve.max_live", "count");
    ("serve.overlap", "ratio");
    ("fleet.stage2_saved_ratio", "ratio");
    ("fleet.materialized_nodes", "count");
    ("fleet.promotions", "count");
    ("fleet.demotions", "count");
    ("gc.minor_per_op", "count");
    ("gc.major_per_op", "count");
    ("trace.coverage", "ratio");
    ("trace.overhead", "ratio");
  ]
  @ List.map (fun s -> ("modeled_ms_per_query." ^ s, "ms")) replay_names

let per_layer =
  List.concat_map
    (fun span -> List.map (fun (stat, unit) -> (span ^ "." ^ stat, unit)) span_stats)
    span_names
  @ layer_counts

(* ------------------------------------------------------------------ *)
(* Run state: failures, report lines, per-layer counters               *)
(* ------------------------------------------------------------------ *)

type counters = {
  mutable ops : int;  (** traced operations *)
  mutable txns : int;  (** traced transactions *)
  mutable reads : int;
  mutable writes : int;
  mutable hits : int;
  mutable misses : int;
  mutable screen_tests : int;
  mutable bloom_probes : int;
  mutable bloom_fp : int;
  mutable ad_entries : int;
  mutable refreshes : int;
  mutable forces : int;
  mutable wal_bytes : int;
  mutable checkpoints : int;
  mutable snapshots : int;
  mutable snapshot_rows : int;
  mutable max_live : int;
  mutable stage2_tests : int;
  mutable stage2_saved : int;
  mutable materialized : int;
  mutable promotions : int;
  mutable demotions : int;
  mutable gc_ops : int;  (** untraced operations the GC counts cover *)
  mutable minor : int;
  mutable major : int;
  mutable traced_loop_s : float;
  mutable traced_rounds : int;
  mutable plain_loop_s : float;
  mutable plain_rounds : int;
  mutable overlap : float;  (** serve: median reader/writer overlap of the untraced rounds *)
}

let counters () =
  {
    ops = 0;
    txns = 0;
    reads = 0;
    writes = 0;
    hits = 0;
    misses = 0;
    screen_tests = 0;
    bloom_probes = 0;
    bloom_fp = 0;
    ad_entries = 0;
    refreshes = 0;
    forces = 0;
    wal_bytes = 0;
    checkpoints = 0;
    snapshots = 0;
    snapshot_rows = 0;
    max_live = 0;
    stage2_tests = 0;
    stage2_saved = 0;
    materialized = 0;
    promotions = 0;
    demotions = 0;
    gc_ops = 0;
    minor = 0;
    major = 0;
    traced_loop_s = 0.;
    traced_rounds = 0;
    plain_loop_s = 0.;
    plain_rounds = 0;
    overlap = 0.;
  }

type run = {
  mutable attempted : int;
  mutable failed : int;
  mutable lines : string list;  (** newest first *)
  tr : Tracer.t;
  c : counters;
  txn_lat : Lat.t;  (** untraced per-operation latencies, pooled *)
  query_lat : Lat.t;
  txn_alloc : Lat.t;  (** bytes each untraced transaction allocated *)
  traced_txn_lat : Lat.t;
  traced_query_lat : Lat.t;
}

let say r fmt = Printf.ksprintf (fun s -> r.lines <- s :: r.lines) fmt

(* One failed check counts as one failed operation. *)
let check r ok what =
  if ok then say r "check ok    %s" what
  else begin
    r.failed <- r.failed + 1;
    say r "check FAIL  %s" what
  end

(* Runs [round i] for i = 0, 1, ... until at least [min_rounds] rounds
   have run and the next round, predicted to last as long as the longest
   so far, would end after [seconds].  An exception fails the round and is
   counted as one failed operation. *)
let repeat r ~seconds ~min_rounds round =
  let t0 = Clock.now_ns () in
  let longest = ref 0. and i = ref 0 in
  while !i < min_rounds || Clock.s_since t0 +. !longest <= seconds do
    let r0 = Clock.now_ns () in
    (try round !i
     with e ->
       r.failed <- r.failed + 1;
       say r "check FAIL  round %d raised %s" !i (Printexc.to_string e));
    longest := Float.max !longest (Clock.s_since r0);
    incr i
  done;
  !i

(* Runs one oracle.  An exception it raises fails the check, which counts
   as one failed operation. *)
let guarded r what f =
  try Some (f ())
  with e ->
    r.failed <- r.failed + 1;
    say r "check FAIL  %s raised %s" what (Printexc.to_string e);
    None

let disk_counts ctx =
  let d = Ctx.disk ctx in
  (Disk.physical_reads d, Disk.physical_writes d, Disk.pool_hits d, Disk.pool_misses d)

let add_disk c ctx (r0, w0, h0, m0) =
  let r1, w1, h1, m1 = disk_counts ctx in
  c.reads <- c.reads + (r1 - r0);
  c.writes <- c.writes + (w1 - w0);
  c.hits <- c.hits + (h1 - h0);
  c.misses <- c.misses + (m1 - m0)

let gc_counts () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections)

let add_gc c ~ops (mi0, ma0) =
  let mi1, ma1 = gc_counts () in
  c.minor <- c.minor + (mi1 - mi0);
  c.major <- c.major + (ma1 - ma0);
  c.gc_ops <- c.gc_ops + ops

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let modeled meter = Cost_meter.total_cost ~excluding:[ Cost_meter.Base ] meter

(* ------------------------------------------------------------------ *)
(* Answers, digests and the tamper hook                                *)
(* ------------------------------------------------------------------ *)

(* FNV-1a 64 over each bag's value-sorted (value key, count) entries, in
   view order: the digest [Fleet_report.run_comparison] reports. *)
let fnv_prime = 0x100000001b3L
let fnv_basis = 0xcbf29ce484222325L

let fnv_string h s =
  let h = ref h in
  String.iter
    (fun ch -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code ch))) fnv_prime)
    s;
  !h

let fnv_bag h bag =
  let entries = ref [] in
  Bag.iter bag (fun tuple count -> entries := (Tuple.value_key tuple, count) :: !entries);
  List.fold_left
    (fun h (key, count) -> fnv_string h (Printf.sprintf "%s#%d;" key count))
    h
    (List.sort (fun (a, _) (b, _) -> String.compare a b) !entries)

let bags_digest bags = Printf.sprintf "%016Lx" (List.fold_left fnv_bag fnv_basis bags)

(* An answer's identity independent of row order: the digest of its
   canonical snapshot image. *)
let answer_digest ~cluster_col rows =
  Snapshot.digest (Snapshot.of_rows ~cluster_col ~epoch:0 ~txns:0 rows)

(* The tamper hook alters exactly one answer, the first non-empty one, by
   adding one to the count of its first row. *)
let tamperer () =
  let fired = ref false in
  fun rows ->
    match rows with
    | (tuple, count) :: rest when not !fired ->
        fired := true;
        (tuple, count + 1) :: rest
    | rows -> rows

let tampered (s : Strategy.t) =
  let alter = tamperer () in
  { s with Strategy.answer_query = (fun q -> alter (s.Strategy.answer_query q)) }

let full_range = { Strategy.q_lo = Strategy.min_sentinel; q_hi = Strategy.max_sentinel }

let txns_of ops =
  List.filter_map (function Stream.Txn cs -> Some cs | Stream.Query _ -> None) ops

(* Rounds cycle through [n] input seeds derived from --seed, so one run
   averages over several datasets instead of measuring one.  In a traced
   run, rounds alternate untraced and traced, and each traced round
   replays the inputs of the untraced round before it. *)
let sub_seeds o n = Array.of_list (Parallel.split_seeds ~root:o.seed n)

let round_seed seeds o i = seeds.((if o.trace then i / 2 else i) mod Array.length seeds)
let is_traced o i = o.trace && i mod 2 = 1

(* Every median of an untraced run rests on at least five rounds; a traced
   run needs two untraced rounds and two traced ones. *)
let min_rounds o = if o.trace then 4 else 5
let seeds_used xs = List.sort_uniq Int.compare xs
let median = Stats.median

(* The observer-effect rows: the workload's throughput metric and the
   latency quantiles, untraced (from [e2e]) against traced. *)
let observer r e2e (throughput, traced) =
  let row name lat q = (name, List.assoc name e2e, Lat.quantile lat q) in
  [
    (throughput, List.assoc throughput e2e, traced);
    row "txn_p50_us" r.traced_txn_lat 0.5;
    row "txn_p99_us" r.traced_txn_lat 0.99;
    row "query_p50_us" r.traced_query_lat 0.5;
    row "query_p99_us" r.traced_query_lat 0.99;
  ]

(* ------------------------------------------------------------------ *)
(* serve-durable                                                      *)
(* ------------------------------------------------------------------ *)

(* [sv_queries] sizes the first round's reader; later rounds size it from
   the round before (see [next_queries]).  [sv_check_queries] sizes the
   reader of the untimed run whose every read is checked. *)
type serve_size = { sv_n : int; sv_k : int; sv_queries : int; sv_check_queries : int }

let serve_size = function
  | Full -> { sv_n = 10_000; sv_k = 1000; sv_queries = 220_000; sv_check_queries = 4000 }
  | Tiny -> { sv_n = 2000; sv_k = 70; sv_queries = 50; sv_check_queries = 50 }

(* The reader must be busy for as long as the writer, or part of the round
   measures one domain alone: reads with no concurrent writer, or a writer
   with no reader.  A round's writer time is [r_txns / r_tps].  The reader
   ran longer when the round's wall time clearly exceeds the writer's;
   otherwise its busy time is bounded below by its summed latencies. *)
let writer_s (rep : Server.report) = float_of_int rep.Server.r_txns /. rep.Server.r_tps

let reader_s (rep : Server.report) =
  if rep.Server.r_wall_s > 1.05 *. writer_s rep then rep.Server.r_wall_s
  else
    let l = rep.Server.r_query_latency in
    float_of_int l.Server.l_count *. l.Server.l_mean_us /. 1e6

(* min/max of writer and reader time: 1 when both ran the whole round. *)
let overlap rep =
  let w = writer_s rep and rd = reader_s rep in
  Float.min w rd /. Float.max w rd

(* The next round's reader is sized to last as long as this round's
   writer, with at least 1000 reads so that its p99 has ten samples
   beyond it. *)
let next_queries (rep : Server.report) =
  let q = float_of_int rep.Server.r_queries *. writer_s rep /. reader_s rep in
  max 1000 (min 5_000_000 (int_of_float q))

(* Rounds whose reader and writer overlap less than this are flagged: their
   ops_per_s and reader quantiles are not comparable with other runs'. *)
let min_overlap = 0.8

let serve_params sz =
  {
    Params.defaults with
    n_tuples = float_of_int sz.sv_n;
    k_updates = float_of_int sz.sv_k;
    l_per_txn = 25.;
    f = 0.1;
    fv = 0.5;
  }

let serve_config sz =
  { Server.default_config with Server.readers = 1; queries_per_reader = sz.sv_queries }

(* An independent oracle: the same stream maintained by immediate
   maintenance instead of deferred refresh, so refresh = recompute is
   checked on the final image. *)
let serve_oracle_digest ~seed ~params =
  let p = { params with Params.q_queries = 0. } in
  let setup = Experiment.model1_setup ~seed p in
  let env = Experiment.model1_env p setup in
  let s = Experiment.model1_strategy_of env `Immediate in
  List.iter s.Strategy.handle_transaction (txns_of setup.Experiment.ms_ops);
  answer_digest ~cluster_col:env.Strategy_sp.view.View_def.sp_cluster_out
    (s.Strategy.answer_query full_range)

(* The served answers' oracle: an untimed [Server.run] that records every
   read, each checked against the image [Server.replay_epochs] rebuilt for
   the epoch the read pinned.  Returns the run's report, the reads checked,
   how many of them disagree, and how many distinct epochs they pinned.
   The tamper hook alters the first served answer. *)
let check_served_reads o ~config ~seed ~params ~(epochs : Snapshot.t array) ~queries =
  let config = { config with Server.record_observations = true; queries_per_reader = queries } in
  let rep = Server.run ~config ~seed ~params ~strategy:`Deferred () in
  let obs =
    match rep.Server.r_observations with
    | ob :: rest when o.tamper -> { ob with Server.ob_digest = ob.Server.ob_digest ^ "+" } :: rest
    | obs -> obs
  in
  let bad =
    List.fold_left
      (fun bad ob ->
        let rows = Snapshot.query epochs.(ob.Server.ob_epoch) ~lo:ob.Server.ob_lo ~hi:ob.Server.ob_hi in
        if String.equal (Snapshot.digest_rows rows) ob.Server.ob_digest then bad else bad + 1)
      0 obs
  in
  let seen = List.sort_uniq Int.compare (List.map (fun ob -> ob.Server.ob_epoch) obs) in
  (rep, List.length obs, bad, List.length seen)

type serve_plain = { sp_seed : int; sp_rep : Server.report; sp_setup_s : float }

type serve_traced = {
  st_seed : int;
  st_digest : string;
  st_modeled : float;
  st_ops : int;
  st_writer_s : float;  (** loop time outside the interleaved reads *)
}

(* One traced round: [Server]'s epoch protocol replayed on this domain,
   as [Server.replay_epochs] does, with the reader's range queries
   interleaved at [ratio] reads per transaction.  Every call into the
   library sits in a span. *)
let serve_traced_round r ~seed ~config ~params ~ratio =
  let tr = r.tr and c = r.c in
  let p = { params with Params.q_queries = 0. } in
  let setup = Experiment.model1_setup ~seed p in
  let env = Experiment.model1_env p setup in
  let ctx = env.Strategy_sp.ctx in
  let meter = Some (Ctx.meter ctx) in
  (* [deferred_introspect] builds exactly [model1_strategy_of env `Deferred]
     and exposes its hypothetical relation. *)
  let inner, hr = Strategy_sp.deferred_introspect env in
  let inner =
    {
      inner with
      Strategy.handle_transaction =
        (fun cs ->
          let i = Tracer.enter tr meter in
          inner.Strategy.handle_transaction cs;
          Tracer.leave tr meter i "view.txn");
    }
  in
  let wal_config =
    match config.Server.durability with
    | Server.Wal_group_commit wc -> wc
    | Server.No_wal -> invalid_arg "serve_traced_round: serve-durable logs every transaction"
  in
  let durable =
    Durable.wrap ~config:wal_config ~ctx ~dev:(Device.memory ())
      ~initial:setup.Experiment.ms_dataset.Dataset.m1_tuples inner
  in
  let strategy = Durable.strategy durable in
  let cluster_col = env.Strategy_sp.view.View_def.sp_cluster_out in
  let txns = txns_of setup.Experiment.ms_ops in
  let store : Snapshot.t Mvcc.t = Mvcc.create () in
  let publish ~traced ~epoch ~txns =
    let span name m f = if traced then Tracer.span tr m name f else f () in
    if traced then begin
      c.ad_entries <- c.ad_entries + Hr.ad_entry_count hr;
      c.refreshes <- c.refreshes + 1
    end;
    let rows =
      span "view.publish_scan" meter (fun () -> strategy.Strategy.answer_query full_range)
    in
    let snap =
      span "serve.snapshot_build" None (fun () -> Snapshot.of_rows ~cluster_col ~epoch ~txns rows)
    in
    ignore (span "serve.publish" None (fun () -> Mvcc.publish store snap));
    if traced then begin
      c.snapshots <- c.snapshots + 1;
      c.snapshot_rows <- c.snapshot_rows + Snapshot.size snap
    end
  in
  (* Epoch 0 goes out before the loop, as in [Server.run]. *)
  publish ~traced:false ~epoch:0 ~txns:0;
  let rng = Rng.create (List.hd (Parallel.split_seeds ~root:seed 1)) in
  let width = params.Params.f *. params.Params.fv in
  let lo_max = params.Params.f -. width in
  let read () =
    let q = Stream.range_query_of ~lo_max ~width rng in
    let i = Tracer.enter tr None in
    let v, snap = Mvcc.pin store in
    ignore (Snapshot.query snap ~lo:q.Strategy.q_lo ~hi:q.Strategy.q_hi);
    Mvcc.unpin store v;
    Tracer.leave tr None i "serve.read";
    let us = float_of_int (Tracer.duration_ns tr i) /. 1e3 in
    Lat.add r.traced_query_lat us;
    us
  in
  let disk0 = disk_counts ctx in
  let screen0 = Cost_meter.predicate_tests (Ctx.meter ctx) Cost_meter.Screen in
  let bloom = Hr.bloom hr in
  let probes0 = Bloom.probes bloom and fp0 = Bloom.false_positives bloom in
  let reads_done = ref 0 and read_us = ref 0. in
  let t0 = Clock.now_ns () in
  let since = ref 0 and epoch = ref 1 and done_ = ref 0 in
  List.iter
    (fun cs ->
      let ck0 = Durable.checkpoints_taken durable in
      let i = Tracer.enter tr meter in
      strategy.Strategy.handle_transaction cs;
      Tracer.leave tr meter i
        (if Durable.checkpoints_taken durable > ck0 then "wal.checkpoint" else "wal.log");
      Lat.add r.traced_txn_lat (float_of_int (Tracer.duration_ns tr i) /. 1e3);
      incr done_;
      incr since;
      if !since >= config.Server.publish_every then begin
        publish ~traced:true ~epoch:!epoch ~txns:!done_;
        incr epoch;
        since := 0
      end;
      let due = int_of_float (ratio *. float_of_int !done_) in
      while !reads_done < due do
        read_us := !read_us +. read ();
        incr reads_done
      done)
    txns;
  if !since > 0 then publish ~traced:true ~epoch:!epoch ~txns:!done_;
  let loop_s = Clock.s_since t0 in
  c.traced_loop_s <- c.traced_loop_s +. loop_s;
  c.traced_rounds <- c.traced_rounds + 1;
  c.ops <- c.ops + !done_ + !reads_done;
  c.txns <- c.txns + !done_;
  add_disk c ctx disk0;
  c.screen_tests <-
    c.screen_tests + Cost_meter.predicate_tests (Ctx.meter ctx) Cost_meter.Screen - screen0;
  c.bloom_probes <- c.bloom_probes + Bloom.probes bloom - probes0;
  c.bloom_fp <- c.bloom_fp + Bloom.false_positives bloom - fp0;
  let w = Durable.wal durable in
  c.forces <- c.forces + Wal.forces w;
  c.wal_bytes <- c.wal_bytes + Wal.forced_bytes w;
  c.checkpoints <- c.checkpoints + Durable.checkpoints_taken durable;
  let _, final = Mvcc.pin store in
  Mvcc.unpin store (Snapshot.epoch final);
  {
    st_seed = seed;
    st_digest = Snapshot.digest final;
    st_modeled = modeled (Ctx.meter ctx);
    st_ops = !done_ + !reads_done;
    st_writer_s = loop_s -. (!read_us /. 1e6);
  }

let run_serve r o =
  let sz = serve_size o.size in
  let params = serve_params sz in
  let config = serve_config sz in
  let seeds = sub_seeds o 2 in
  let plain = ref [] and traced = ref [] in
  let queries = ref sz.sv_queries in
  let untraced_round seed =
    let config = { config with Server.queries_per_reader = !queries } in
    let gc0 = gc_counts () in
    let t0 = Clock.now_ns () in
    let rep = Server.run ~config ~seed ~params ~strategy:`Deferred () in
    let wall = Clock.s_since t0 in
    let ops = rep.Server.r_txns + rep.Server.r_queries in
    add_gc r.c ~ops gc0;
    r.attempted <- r.attempted + ops;
    r.c.plain_loop_s <- r.c.plain_loop_s +. rep.Server.r_wall_s;
    r.c.plain_rounds <- r.c.plain_rounds + 1;
    r.c.max_live <- max r.c.max_live rep.Server.r_max_live;
    queries := next_queries rep;
    plain := { sp_seed = seed; sp_rep = rep; sp_setup_s = wall -. rep.Server.r_wall_s } :: !plain
  in
  let rounds =
    repeat r ~seconds:o.seconds ~min_rounds:(min_rounds o) (fun i ->
        let seed = round_seed seeds o i in
        if is_traced o i then begin
          let rep = (List.hd !plain).sp_rep in
          let ratio =
            float_of_int rep.Server.r_queries /. float_of_int (max 1 rep.Server.r_txns)
          in
          let t = serve_traced_round r ~seed ~config ~params ~ratio in
          r.attempted <- r.attempted + t.st_ops;
          traced := t :: !traced
        end
        else untraced_round seed)
  in
  let rss = peak_rss_mb () in
  let plain = List.rev !plain and traced = List.rev !traced in
  say r "rounds %d (%d untraced, %d traced); %d txns per round, reader sized to the writer" rounds
    (List.length plain) (List.length traced) sz.sv_k;
  List.iteri
    (fun i p ->
      let rep = p.sp_rep in
      let l = rep.Server.r_txn_latency and q = rep.Server.r_query_latency in
      say r
        "round %d seed %d: setup %.3fs  %.1f txn/s  txn p50 %.1fus p99 %.1fus (n=%d)  query p50 %.1fus p99 %.1fus (n=%d)  epochs %d  writer %.2fs reader %.2fs overlap %.2f%s"
        i p.sp_seed p.sp_setup_s rep.Server.r_tps l.Server.l_p50_us l.Server.l_p99_us
        l.Server.l_count q.Server.l_p50_us q.Server.l_p99_us q.Server.l_count
        rep.Server.r_epochs (writer_s rep) (reader_s rep) (overlap rep)
        (if overlap rep < min_overlap then "  LOW OVERLAP" else ""))
    plain;
  let low = List.length (List.filter (fun p -> overlap p.sp_rep < min_overlap) plain) in
  if low > 0 then
    say r "warning: %d of %d rounds overlap reader and writer less than %.2f" low
      (List.length plain) min_overlap;
  (* Oracles, outside every timed region, once per input seed. *)
  List.iter
    (fun seed ->
      ignore @@ guarded r (Printf.sprintf "seed %d: oracle" seed) @@ fun () ->
      let reps = List.filter_map (fun p -> if p.sp_seed = seed then Some p.sp_rep else None) plain in
      let first = List.hd reps in
      let digest = first.Server.r_final_digest and total = first.Server.r_modeled_ms in
      check r
        (List.for_all
           (fun rep -> String.equal rep.Server.r_final_digest digest && rep.Server.r_modeled_ms = total)
           reps)
        (Printf.sprintf "seed %d: %d untraced rounds agree on final digest and modeled total" seed
           (List.length reps));
      let epochs = Server.replay_epochs ~config ~seed ~params ~strategy:`Deferred () in
      check r
        (String.equal (Snapshot.digest epochs.(Array.length epochs - 1)) digest)
        (Printf.sprintf "seed %d: final snapshot digest equals Server.replay_epochs" seed);
      check r
        (String.equal (serve_oracle_digest ~seed ~params) digest)
        (Printf.sprintf "seed %d: final snapshot digest equals immediate maintenance" seed);
      let rep, reads, bad, seen =
        check_served_reads o ~config ~seed ~params ~epochs ~queries:sz.sv_check_queries
      in
      r.attempted <- r.attempted + reads;
      r.failed <- r.failed + bad;
      say r "check %s seed %d: %d of %d served reads (over %d of %d epochs) differ from Server.replay_epochs"
        (if bad = 0 then "ok   " else "FAIL ")
        seed bad reads seen (Array.length epochs);
      check r
        (String.equal rep.Server.r_final_digest digest)
        (Printf.sprintf "seed %d: the checked run ends with the same final digest" seed))
    (seeds_used (List.map (fun p -> p.sp_seed) plain));
  if o.trace then
    check r
      (List.for_all
         (fun t ->
           List.exists
             (fun p ->
               p.sp_seed = t.st_seed
               && String.equal p.sp_rep.Server.r_final_digest t.st_digest
               && p.sp_rep.Server.r_modeled_ms = t.st_modeled)
             plain)
         traced)
      "traced rounds reproduce the untraced rounds' final digests and modeled totals";
  let med f = median (List.map (fun p -> f p.sp_rep) plain) in
  r.c.overlap <- med overlap;
  let e2e =
    [
      ("setup_s", median (List.map (fun p -> p.sp_setup_s) plain));
      ("txn_per_s", med (fun rep -> rep.Server.r_tps));
      ( "ops_per_s",
        med (fun rep -> float_of_int (rep.Server.r_txns + rep.Server.r_queries) /. rep.Server.r_wall_s)
      );
      ("txn_p50_us", med (fun rep -> rep.Server.r_txn_latency.Server.l_p50_us));
      ("txn_p99_us", med (fun rep -> rep.Server.r_txn_latency.Server.l_p99_us));
      ("query_p50_us", med (fun rep -> rep.Server.r_query_latency.Server.l_p50_us));
      ("query_p99_us", med (fun rep -> rep.Server.r_query_latency.Server.l_p99_us));
      ("writer_alloc_b_per_txn", med (fun rep -> rep.Server.r_writer_alloc_per_txn));
      ( "alloc_b_per_op",
        med (fun rep ->
            (rep.Server.r_writer_alloc_bytes +. rep.Server.r_reader_alloc_bytes)
            /. float_of_int (rep.Server.r_txns + rep.Server.r_queries)) );
      ("peak_rss_mb", rss);
      (* Readers cost nothing modeled; the writer's modeled cost is spread
         over its transactions. *)
      ("modeled_ms_per_op", med (fun rep -> rep.Server.r_modeled_ms /. float_of_int rep.Server.r_txns));
    ]
  in
  let observer =
    match traced with
    | [] -> []
    | _ ->
        observer r e2e
          ("txn_per_s", median (List.map (fun t -> float_of_int sz.sv_k /. t.st_writer_s) traced))
  in
  (e2e, observer, [])

(* ------------------------------------------------------------------ *)
(* Single-client rounds: replay and fleet                              *)
(* ------------------------------------------------------------------ *)

(* One round of a single-client workload.  Its operations are timed one
   by one into the run's pooled latency buffers. *)
type round = {
  rd_seed : int;
  rd_setup_s : float;
  rd_loop_s : float;
  rd_ops : int;
  rd_txns : int;
  rd_alloc : float;  (** bytes allocated over the loop *)
  rd_txn_s : float;  (** seconds spent inside transactions (untraced rounds) *)
  rd_finals : (string * string * float) list;
      (** per engine: name, final contents digest, modeled total excluding [Base] *)
}

let modeled_total rd = List.fold_left (fun acc (_, _, t) -> acc +. t) 0. rd.rd_finals

(* Counts a finished round into the run: untraced rounds feed the GC
   counters, traced ones the per-layer totals. *)
let account r ~traced ~gc0 rd =
  r.attempted <- r.attempted + rd.rd_ops;
  if traced then begin
    r.c.traced_loop_s <- r.c.traced_loop_s +. rd.rd_loop_s;
    r.c.traced_rounds <- r.c.traced_rounds + 1;
    r.c.ops <- r.c.ops + rd.rd_ops;
    r.c.txns <- r.c.txns + rd.rd_txns
  end
  else begin
    add_gc r.c ~ops:rd.rd_ops gc0;
    r.c.plain_loop_s <- r.c.plain_loop_s +. rd.rd_loop_s;
    r.c.plain_rounds <- r.c.plain_rounds + 1
  end

(* Runs the timed rounds: untraced ones, alternating with traced ones in a
   traced run, cycling through [seeds]. *)
let run_rounds r o seeds round =
  let plain = ref [] and traced = ref [] in
  let n =
    repeat r ~seconds:o.seconds ~min_rounds:(min_rounds o) (fun i ->
        let seed = round_seed seeds o i in
        if is_traced o i then traced := round ~seed `Traced :: !traced
        else plain := round ~seed `Plain :: !plain)
  in
  (n, List.rev !plain, List.rev !traced)

(* Every round must end with the final contents and modeled totals that
   [reference] gives for its seed; a seed whose oracle failed has none. *)
let check_reproduces r o ~reference ~plain ~traced =
  let ok rd = reference rd.rd_seed = Some rd.rd_finals in
  check r (List.for_all ok plain)
    "untraced rounds reproduce the oracle's final contents and modeled totals";
  if o.trace then
    check r (List.for_all ok traced)
      "traced rounds reproduce the oracle's final contents and modeled totals"

(* [writer_alloc_b_per_txn] is the median over transactions: a few
   transactions allocate about 1.8 MB each at once, and how many fall in a
   run depends on the dataset, which moved the mean by 20% between seeds. *)
let pooled_e2e r plain ~setups ~rss =
  let sum f = List.fold_left (fun acc rd -> acc +. f rd) 0. plain in
  [
    ("setup_s", median setups);
    ("txn_per_s", median (List.map (fun rd -> float_of_int rd.rd_txns /. rd.rd_txn_s) plain));
    ("ops_per_s", median (List.map (fun rd -> float_of_int rd.rd_ops /. rd.rd_loop_s) plain));
    ("txn_p50_us", Lat.quantile r.txn_lat 0.5);
    ("txn_p99_us", Lat.quantile r.txn_lat 0.99);
    ("query_p50_us", Lat.quantile r.query_lat 0.5);
    ("query_p99_us", Lat.quantile r.query_lat 0.99);
    ("writer_alloc_b_per_txn", Lat.quantile r.txn_alloc 0.5);
    ("alloc_b_per_op", sum (fun rd -> rd.rd_alloc) /. sum (fun rd -> float_of_int rd.rd_ops));
    ("peak_rss_mb", rss);
    ( "modeled_ms_per_op",
      median (List.map (fun rd -> modeled_total rd /. float_of_int rd.rd_ops) plain) );
  ]

let pooled_observer r e2e traced =
  match traced with
  | [] -> []
  | _ -> observer r e2e ("ops_per_s", float_of_int r.c.ops /. r.c.traced_loop_s)

(* ------------------------------------------------------------------ *)
(* replay                                                              *)
(* ------------------------------------------------------------------ *)

type replay_size = { rp_n : int; rp_k : int }

let replay_size = function
  | Full -> { rp_n = 50_000; rp_k = 1000 }
  | Tiny -> { rp_n = 2000; rp_k = 20 }

(* P = k / (k + q) = 0.5: as many queries as transactions. *)
let replay_params sz =
  {
    Params.defaults with
    n_tuples = float_of_int sz.rp_n;
    k_updates = float_of_int sz.rp_k;
    q_queries = float_of_int sz.rp_k;
    l_per_txn = 25.;
    f = 0.1;
    fv = 0.1;
  }

(* Records one untraced transaction: its latency, its allocation, and its
   time added to [txn_s.(0)], a float array so that adding does not
   allocate.  Both samples are taken before either buffer can grow. *)
let record_txn r txn_s ~a0 ~t0 =
  let us = Clock.us_since t0 in
  let bytes = Gc.allocated_bytes () -. a0 in
  Lat.add r.txn_lat us;
  Lat.add r.txn_alloc bytes;
  txn_s.(0) <- txn_s.(0) +. (us /. 1e6)

(* Times every transaction and query of an untraced round. *)
let timed r (s : Strategy.t) txn_s =
  {
    s with
    Strategy.handle_transaction =
      (fun cs ->
        let a0 = Gc.allocated_bytes () in
        let t0 = Clock.now_ns () in
        s.Strategy.handle_transaction cs;
        record_txn r txn_s ~a0 ~t0);
    answer_query =
      (fun q ->
        let t0 = Clock.now_ns () in
        let rows = s.Strategy.answer_query q in
        Lat.add r.query_lat (Clock.us_since t0);
        rows);
  }

let traced_strategy r meter hr (s : Strategy.t) =
  let tr = r.tr in
  let txn_name = "view.txn." ^ s.Strategy.name in
  let query_name = "view.query." ^ s.Strategy.name in
  {
    s with
    Strategy.handle_transaction =
      (fun cs ->
        let i = Tracer.enter tr meter in
        s.Strategy.handle_transaction cs;
        Tracer.leave tr meter i txn_name;
        Lat.add r.traced_txn_lat (float_of_int (Tracer.duration_ns tr i) /. 1e3));
    answer_query =
      (fun q ->
        (match hr with
        | Some hr ->
            r.c.ad_entries <- r.c.ad_entries + Hr.ad_entry_count hr;
            r.c.refreshes <- r.c.refreshes + 1
        | None -> ());
        let i = Tracer.enter tr meter in
        let rows = s.Strategy.answer_query q in
        Tracer.leave tr meter i query_name;
        Lat.add r.traced_query_lat (float_of_int (Tracer.duration_ns tr i) /. 1e3);
        rows);
  }

(* One replay of a seed's stream by each strategy, back to back, each on
   its own context.  [`Verify] rounds digest every answer and are not
   timed; [`Plain] rounds time every operation; [`Traced] rounds record
   spans.  Returns the round and, per strategy, its answer digests
   ([`Verify] only). *)
let replay_round r o ~p ~seed kind =
  let t0 = Clock.now_ns () in
  let setup = Experiment.model1_setup ~seed p in
  let engines =
    List.map
      (fun which ->
        let env = Experiment.model1_env p setup in
        let s, hr =
          match (which, kind) with
          | `Deferred, `Traced ->
              let s, hr = Strategy_sp.deferred_introspect env in
              (s, Some hr)
          | _ -> (Experiment.model1_strategy_of env which, None)
        in
        (env, (if o.tamper && which = `Deferred then tampered s else s), hr))
      replay_strategies
  in
  let setup_s = Clock.s_since t0 in
  let ops = setup.Experiment.ms_ops in
  let txns, queries = Stream.count_ops ops in
  let cluster_col = setup.Experiment.ms_dataset.Dataset.m1_view.View_def.sp_cluster_out in
  let loop_s = ref 0. and alloc = ref 0. and txn_s = [| 0. |] in
  let gc0 = gc_counts () in
  let results =
    List.map
      (fun (env, (s : Strategy.t), hr) ->
        let ctx = env.Strategy_sp.ctx in
        let meter = Ctx.meter ctx in
        let answers = ref [] in
        let decorated =
          match kind with
          | `Verify ->
              {
                s with
                Strategy.answer_query =
                  (fun q ->
                    let rows = s.Strategy.answer_query q in
                    answers := answer_digest ~cluster_col rows :: !answers;
                    rows);
              }
          | `Plain -> timed r s txn_s
          | `Traced -> traced_strategy r (Some meter) hr s
        in
        let disk0 = disk_counts ctx in
        let bloom0 =
          Option.map (fun hr -> (Bloom.probes (Hr.bloom hr), Bloom.false_positives (Hr.bloom hr))) hr
        in
        let a0 = Gc.allocated_bytes () in
        let t = Clock.now_ns () in
        ignore (Runner.run ~ctx ~strategy:decorated ~ops ());
        loop_s := !loop_s +. Clock.s_since t;
        alloc := !alloc +. (Gc.allocated_bytes () -. a0);
        if kind = `Traced then begin
          add_disk r.c ctx disk0;
          r.c.screen_tests <- r.c.screen_tests + Cost_meter.predicate_tests meter Cost_meter.Screen;
          match (hr, bloom0) with
          | Some hr, Some (p0, f0) ->
              let b = Hr.bloom hr in
              r.c.bloom_probes <- r.c.bloom_probes + Bloom.probes b - p0;
              r.c.bloom_fp <- r.c.bloom_fp + Bloom.false_positives b - f0
          | _ -> ()
        end;
        ( (s.Strategy.name, bags_digest [ s.Strategy.view_contents () ], modeled meter),
          (s.Strategy.name, List.rev !answers) ))
      engines
  in
  let nstrat = List.length engines in
  let rd =
    {
      rd_seed = seed;
      rd_setup_s = setup_s;
      rd_loop_s = !loop_s;
      rd_ops = nstrat * (txns + queries);
      rd_txns = nstrat * txns;
      rd_alloc = !alloc;
      rd_txn_s = txn_s.(0);
      rd_finals = List.map fst results;
    }
  in
  if kind <> `Verify then account r ~traced:(kind = `Traced) ~gc0 rd;
  (rd, List.map snd results)

let run_replay r o =
  let sz = replay_size o.size in
  let p = replay_params sz in
  (* Two input seeds: the oracle replays one untimed round per seed. *)
  let n, plain, traced =
    run_rounds r o (sub_seeds o 2) (fun ~seed kind -> fst (replay_round r o ~p ~seed kind))
  in
  let rss = peak_rss_mb () in
  say r "rounds %d; %d txns and %d queries per strategy per round" n sz.rp_k sz.rp_k;
  (* The oracle, per seed: one untimed round digests every answer, and
     every query's answer and every final view agree across the strategies
     (refresh = recompute). *)
  let verified =
    List.filter_map
      (fun seed ->
        guarded r (Printf.sprintf "seed %d: oracle" seed) @@ fun () ->
        let rd, answers = replay_round r o ~p ~seed `Verify in
        let _, a0 = List.hd answers in
        List.iter2
          (fun (name, a) (_, c, _) ->
            let bad = List.length (List.filter not (List.map2 String.equal a0 a)) in
            let _, c0, _ = List.hd rd.rd_finals in
            r.attempted <- r.attempted + List.length a;
            r.failed <- r.failed + bad;
            say r "check %s seed %d: %d of %d %s answers differ from deferred's"
              (if bad = 0 then "ok   " else "FAIL ")
              seed bad (List.length a) name;
            check r (String.equal c c0) (Printf.sprintf "seed %d: %s final view equals deferred's" seed name))
          (List.tl answers) (List.tl rd.rd_finals);
        (seed, rd))
      (seeds_used (List.map (fun rd -> rd.rd_seed) (plain @ traced)))
  in
  check_reproduces r o
    ~reference:(fun seed -> Option.map (fun rd -> rd.rd_finals) (List.assoc_opt seed verified))
    ~plain ~traced;
  let per_query =
    List.map
      (fun n ->
        ( "modeled_ms_per_query." ^ n,
          median
            (List.map
               (fun rd ->
                 let _, _, total = List.find (fun (n', _, _) -> String.equal n n') rd.rd_finals in
                 total /. float_of_int sz.rp_k)
               plain) ))
      replay_names
  in
  List.iter (fun (n, v) -> say r "%s = %.3f ms (median over untraced rounds)" n v) per_query;
  let setups = List.map (fun rd -> rd.rd_setup_s) (plain @ List.map snd verified) in
  let e2e = pooled_e2e r plain ~setups ~rss in
  (e2e, pooled_observer r e2e traced, per_query)

(* ------------------------------------------------------------------ *)
(* fleet                                                               *)
(* ------------------------------------------------------------------ *)

type fleet_size = { fl_views : int; fl_n : int; fl_k : int; fl_q : int }

let fleet_size = function
  | Full -> { fl_views = 256; fl_n = 2000; fl_k = 200; fl_q = 100 }
  | Tiny -> { fl_views = 16; fl_n = 500; fl_k = 20; fl_q = 10 }

let fleet_opts sz ~seed =
  {
    Fleet_report.default_opts with
    Fleet_report.ro_views = sz.fl_views;
    ro_overlap = 0.5;
    ro_subsume = 0.25;
    ro_hetero = 0.2;
    ro_zipf = 1.1;
    ro_n_tuples = sz.fl_n;
    ro_k = sz.fl_k;
    ro_l = 8;
    ro_q = sz.fl_q;
    ro_fv = 0.3;
    ro_seed = seed;
    ro_advisor = Some Advisor.default_config;
    ro_check = true;
  }

(* The fleet and stream [Fleet_report.run_comparison] builds from the same
   options, so its digest is an oracle for this run's final contents. *)
let fleet_inputs (fo : Fleet_report.opts) =
  let rng = Rng.create fo.Fleet_report.ro_seed in
  let tids = Tuple.source () in
  let dataset =
    Dataset.make_model1 ~rng ~tids ~n:fo.Fleet_report.ro_n_tuples ~f:0.5 ~s_bytes:100
  in
  let base = dataset.Dataset.m1_schema in
  let spec =
    Spec.overlapping_fleet ~rng ~base ~views:fo.Fleet_report.ro_views
      ~overlap:fo.Fleet_report.ro_overlap ~subsume:fo.Fleet_report.ro_subsume
      ~hetero:fo.Fleet_report.ro_hetero ()
  in
  let ops =
    Stream.generate_fleet ~rng ~tuples:(Array.of_list dataset.Dataset.m1_tuples)
      ~mutate:
        (Stream.mutate_column ~tids ~col:2 (fun rng ->
             Value.Float (float_of_int (Rng.int rng 1000))))
      ~views:fo.Fleet_report.ro_views ~zipf_s:fo.Fleet_report.ro_zipf ~k:fo.Fleet_report.ro_k
      ~l:fo.Fleet_report.ro_l ~q:fo.Fleet_report.ro_q
      ~query_of:(fun rng v -> Spec.query_of spec ~fv:fo.Fleet_report.ro_fv rng v)
  in
  (base, spec, dataset.Dataset.m1_tuples, ops, Tuple.peek tids)

let vname v = Printf.sprintf "v%d" v

(* The tamper hook for the fleet alters one answer: the final contents of
   the first non-empty view gain one more copy of one row. *)
let tamper_bags bags =
  let fired = ref false in
  List.map
    (fun b ->
      match Bag.to_list b with
      | t :: _ when not !fired ->
          fired := true;
          let b = Bag.copy b in
          Bag.add_count b t 1;
          b
      | _ -> b)
    bags

let fleet_round r o sz ~seed kind =
  let fo = fleet_opts sz ~seed in
  let t0 = Clock.now_ns () in
  let base, spec, initial, ops, first_tid = fleet_inputs fo in
  let ctx = Ctx.create ~seed:(seed + 1) ~first_tid () in
  let meter = Ctx.meter ctx in
  let fleet =
    Fleet.create ~ctx ~base ~views:spec.Spec.fs_views ~initial
      ~ad_buckets:fo.Fleet_report.ro_ad_buckets ~advisor:fo.Fleet_report.ro_advisor ()
  in
  Cost_meter.reset meter;
  let setup_s = Clock.s_since t0 in
  let txns, queries = Stream.count_fleet_ops ops in
  let txn_s = [| 0. |] in
  let tr = r.tr and m = Some meter in
  let step =
    match kind with
    | `Plain -> (
        function
        | Stream.Ftxn cs ->
            let a0 = Gc.allocated_bytes () in
            let t0 = Clock.now_ns () in
            Fleet.handle_transaction fleet cs;
            record_txn r txn_s ~a0 ~t0
        | Stream.Fquery (v, q) ->
            let t = Clock.now_ns () in
            ignore (Fleet.answer_query fleet ~view:(vname v) q);
            Lat.add r.query_lat (Clock.us_since t))
    | `Traced -> (
        function
        | Stream.Ftxn cs ->
            let i = Tracer.enter tr m in
            Fleet.handle_transaction fleet cs;
            Tracer.leave tr m i "fleet.txn";
            Lat.add r.traced_txn_lat (float_of_int (Tracer.duration_ns tr i) /. 1e3)
        | Stream.Fquery (v, q) ->
            (* A query that ran an advisor action is fleet.advise, else one
               that ran a refresh pass is fleet.query_refresh. *)
            let refreshes = Fleet.refreshes fleet in
            let st = Fleet.stats fleet in
            let events = st.Fleet.st_promotions + st.Fleet.st_demotions in
            let i = Tracer.enter tr m in
            ignore (Fleet.answer_query fleet ~view:(vname v) q);
            Tracer.leave tr m i "fleet.query";
            let st = Fleet.stats fleet in
            if st.Fleet.st_promotions + st.Fleet.st_demotions > events then
              Tracer.rename tr i "fleet.advise"
            else if Fleet.refreshes fleet > refreshes then Tracer.rename tr i "fleet.query_refresh";
            Lat.add r.traced_query_lat (float_of_int (Tracer.duration_ns tr i) /. 1e3))
  in
  let disk0 = disk_counts ctx in
  let gc0 = gc_counts () in
  let a0 = Gc.allocated_bytes () in
  let t = Clock.now_ns () in
  List.iter step ops;
  let loop_s = Clock.s_since t in
  let alloc = Gc.allocated_bytes () -. a0 in
  let bags = List.init fo.Fleet_report.ro_views (fun v -> Fleet.view_contents fleet ~view:(vname v)) in
  let digest = bags_digest (if o.tamper then tamper_bags bags else bags) in
  if kind = `Traced then begin
    let st = Fleet.stats fleet in
    add_disk r.c ctx disk0;
    r.c.screen_tests <- r.c.screen_tests + Cost_meter.predicate_tests meter Cost_meter.Screen;
    r.c.stage2_tests <- r.c.stage2_tests + st.Fleet.st_stage2_tests;
    r.c.stage2_saved <- r.c.stage2_saved + st.Fleet.st_stage2_saved;
    r.c.materialized <- r.c.materialized + st.Fleet.st_materialized;
    r.c.promotions <- r.c.promotions + st.Fleet.st_promotions;
    r.c.demotions <- r.c.demotions + st.Fleet.st_demotions
  end;
  let rd =
    {
      rd_seed = seed;
      rd_setup_s = setup_s;
      rd_loop_s = loop_s;
      rd_ops = txns + queries;
      rd_txns = txns;
      rd_alloc = alloc;
      rd_txn_s = txn_s.(0);
      rd_finals = [ ("fleet", digest, modeled meter) ];
    }
  in
  account r ~traced:(kind = `Traced) ~gc0 rd;
  rd

let run_fleet r o =
  let sz = fleet_size o.size in
  (* Two input seeds: the oracle costs about 3.6 s per seed. *)
  let n, plain, traced = run_rounds r o (sub_seeds o 2) (fleet_round r o sz) in
  let rss = peak_rss_mb () in
  say r "rounds %d; %d views, %d txns of 8 tuples and %d queries per round" n sz.fl_views sz.fl_k
    sz.fl_q;
  (* The oracle, per seed: the library's comparison against isolated
     single-view engines checks every answer there, and its final digest
     is what every round of the seed must end with.  Modeled totals must
     agree across the rounds of a seed. *)
  let reference =
    List.filter_map
      (fun seed ->
        guarded r (Printf.sprintf "seed %d: oracle" seed) @@ fun () ->
        let cmp = Fleet_report.run_comparison (fleet_opts sz ~seed) in
        check r cmp.Fleet_report.r_match
          (Printf.sprintf "seed %d: Fleet_report.run_comparison finds the fleet equal to isolated engines"
             seed);
        let first = List.find (fun rd -> rd.rd_seed = seed) (plain @ traced) in
        let _, _, total = List.hd first.rd_finals in
        (seed, [ ("fleet", cmp.Fleet_report.r_digest, total) ]))
      (seeds_used (List.map (fun rd -> rd.rd_seed) (plain @ traced)))
  in
  check_reproduces r o ~reference:(fun seed -> List.assoc_opt seed reference) ~plain ~traced;
  let e2e = pooled_e2e r plain ~setups:(List.map (fun rd -> rd.rd_setup_s) plain) ~rss in
  (e2e, pooled_observer r e2e traced, [])

(* Putting a run together                                              *)
(* ------------------------------------------------------------------ *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * string * float) list;  (** name, unit, value *)
  lines : string list;  (** human-readable report, in order *)
  observer : (string * float * float) list;  (** metric, untraced, traced *)
  rounds : int;  (** timed rounds, untraced and traced *)
}

let ratio a b = if b > 0. then a /. b else 0.

let layer_metrics r ~per_query =
  let c = r.c in
  let loop_ns = c.traced_loop_s *. 1e9 in
  let summary = Tracer.summary r.tr in
  let spans =
    List.concat_map
      (fun name ->
        let s = Option.value ~default:Tracer.zero (List.assoc_opt name summary) in
        let calls = float_of_int s.Tracer.calls in
        [
          (name ^ ".calls", calls);
          (name ^ ".us_per_call", ratio s.Tracer.self_ns calls /. 1e3);
          (name ^ ".share", ratio s.Tracer.self_ns loop_ns);
          (name ^ ".alloc_b_per_call", ratio s.Tracer.self_alloc calls);
          (name ^ ".modeled_ms_per_call", ratio s.Tracer.self_modeled calls);
        ])
      span_names
  in
  let ops = float_of_int c.ops and txns = float_of_int c.txns in
  let rounds = float_of_int (max 1 c.traced_rounds) in
  let counts =
    [
      ("storage.reads_per_op", ratio (float_of_int c.reads) ops);
      ("storage.writes_per_op", ratio (float_of_int c.writes) ops);
      ("storage.pool_hit_ratio", ratio (float_of_int c.hits) (float_of_int (c.hits + c.misses)));
      ("hypo.bloom_fp_ratio", ratio (float_of_int c.bloom_fp) (float_of_int c.bloom_probes));
      ("hypo.ad_entries_per_refresh", ratio (float_of_int c.ad_entries) (float_of_int c.refreshes));
      ("view.stage2_tests_per_txn", ratio (float_of_int c.screen_tests) txns);
      ("wal.forces_per_txn", ratio (float_of_int c.forces) txns);
      ("wal.bytes_per_txn", ratio (float_of_int c.wal_bytes) txns);
      ("wal.checkpoints", float_of_int c.checkpoints /. rounds);
      ("serve.rows_per_snapshot", ratio (float_of_int c.snapshot_rows) (float_of_int c.snapshots));
      ("serve.max_live", float_of_int c.max_live);
      ("serve.overlap", c.overlap);
      ( "fleet.stage2_saved_ratio",
        ratio (float_of_int c.stage2_saved) (float_of_int (c.stage2_saved + c.stage2_tests)) );
      ("fleet.materialized_nodes", float_of_int c.materialized /. rounds);
      ("fleet.promotions", float_of_int c.promotions /. rounds);
      ("fleet.demotions", float_of_int c.demotions /. rounds);
      ("gc.minor_per_op", ratio (float_of_int c.minor) (float_of_int c.gc_ops));
      ("gc.major_per_op", ratio (float_of_int c.major) (float_of_int c.gc_ops));
      ("trace.coverage", ratio (Tracer.covered_ns r.tr) loop_ns);
      ( "trace.overhead",
        ratio (c.traced_loop_s /. rounds) (c.plain_loop_s /. float_of_int (max 1 c.plain_rounds)) );
    ]
  in
  let per_query =
    List.map
      (fun n ->
        let key = "modeled_ms_per_query." ^ n in
        (key, Option.value ~default:0. (List.assoc_opt key per_query)))
      replay_names
  in
  (spans @ counts @ per_query, summary)

let profile_lines r summary =
  let loop_ns = r.c.traced_loop_s *. 1e9 in
  Printf.sprintf "%-28s %8s %12s %7s %14s %14s" "span (self time)" "calls" "us/call" "share"
    "alloc B/call" "modeled ms/call"
  :: List.map
       (fun (name, s) ->
         let calls = float_of_int s.Tracer.calls in
         Printf.sprintf "%-28s %8d %12.2f %6.1f%% %14.0f %14.3f" name s.Tracer.calls
           (ratio s.Tracer.self_ns calls /. 1e3)
           (100. *. ratio s.Tracer.self_ns loop_ns)
           (ratio s.Tracer.self_alloc calls)
           (ratio s.Tracer.self_modeled calls))
       summary

let run o =
  let r =
    {
      attempted = 0;
      failed = 0;
      lines = [];
      tr = Tracer.create ();
      c = counters ();
      txn_lat = Lat.create ();
      query_lat = Lat.create ();
      txn_alloc = Lat.create ();
      traced_txn_lat = Lat.create ();
      traced_query_lat = Lat.create ();
    }
  in
  let e2e, observer, per_query =
    match o.workload with
    | Serve_durable -> run_serve r o
    | Replay -> run_replay r o
    | Fleet_wl -> run_fleet r o
  in
  let samples name lat = say r "%s samples: %d" name (Lat.count lat) in
  (match o.workload with
  | Replay | Fleet_wl ->
      samples "untraced txn latency" r.txn_lat;
      samples "untraced query latency" r.query_lat
  | Serve_durable -> ());
  let metrics =
    if o.trace then begin
      let values, summary = layer_metrics r ~per_query in
      List.iter (say r "%s") (profile_lines r summary);
      say r "traced counts: %d bloom probes (%d false positives); %d AD entries over %d deferred refreshes"
        r.c.bloom_probes r.c.bloom_fp r.c.ad_entries r.c.refreshes;
      List.map (fun (name, unit) -> (name, unit, List.assoc name values)) per_layer
    end
    else List.map (fun (name, unit) -> (name, unit, List.assoc name e2e)) end_to_end
  in
  {
    correct = r.failed = 0;
    attempted = max 1 r.attempted;
    failed = r.failed;
    metrics;
    lines = List.rev r.lines;
    observer;
    rounds = r.c.plain_rounds + r.c.traced_rounds;
  }

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else invalid_arg "non-finite metric"

let result_json res =
  let metrics =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      res.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    res.correct res.attempted res.failed (String.concat ", " metrics)

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

let params_json o =
  match o.workload with
  | Serve_durable ->
      let sz = serve_size o.size in
      let c = serve_config sz in
      Printf.sprintf
        "{\"strategy\": \"deferred\", \"N\": %d, \"f\": 0.1, \"l\": 25, \"k\": %d, \"fv\": 0.5, \"readers\": %d, \"queries_per_reader\": %d, \"publish_every\": %d, \"wal\": %s}"
        sz.sv_n sz.sv_k c.Server.readers c.Server.queries_per_reader c.Server.publish_every
        (match c.Server.durability with
        | Server.No_wal -> "null"
        | Server.Wal_group_commit w ->
            Printf.sprintf "{\"group_commit\": %d, \"checkpoint_every\": %d}"
              w.Wal.group_commit w.Wal.checkpoint_every)
  | Replay ->
      let sz = replay_size o.size in
      Printf.sprintf
        "{\"strategies\": [\"deferred\", \"immediate\", \"qmod-clustered\"], \"N\": %d, \"f\": 0.1, \"l\": 25, \"k\": %d, \"q\": %d, \"P\": 0.5, \"fv\": 0.1}"
        sz.rp_n sz.rp_k sz.rp_k
  | Fleet_wl ->
      let sz = fleet_size o.size in
      let fo = fleet_opts sz ~seed:o.seed in
      Printf.sprintf
        "{\"views\": %d, \"N\": %d, \"k\": %d, \"l\": %d, \"q\": %d, \"fv\": %g, \"overlap\": %g, \"subsume\": %g, \"hetero\": %g, \"zipf\": %g, \"advisor\": true}"
        sz.fl_views sz.fl_n sz.fl_k fo.Fleet_report.ro_l sz.fl_q fo.Fleet_report.ro_fv
        fo.Fleet_report.ro_overlap fo.Fleet_report.ro_subsume fo.Fleet_report.ro_hetero
        fo.Fleet_report.ro_zipf

let provenance_json o res ~commit =
  Printf.sprintf
    "provenance: {\"workload\": %S, \"seed\": %d, \"seconds\": %g, \"trace\": %b, \"size\": %S, \"rounds\": %d, \"nproc\": %d, \"ocaml\": %S, \"commit\": %S, \"params\": %s}"
    (workload_name o.workload) o.seed o.seconds o.trace
    (match o.size with Full -> "full" | Tiny -> "tiny")
    res.rounds (Domain.recommended_domain_count ()) Sys.ocaml_version commit (params_json o)

let observer_json o res =
  Printf.sprintf "observer: {\"workload\": %S, \"rows\": [%s]}" (workload_name o.workload)
    (String.concat ", "
       (List.map
          (fun (m, u, t) ->
            Printf.sprintf "{\"metric\": %S, \"untraced\": %s, \"traced\": %s}" m (json_number u)
              (json_number t))
          res.observer))
