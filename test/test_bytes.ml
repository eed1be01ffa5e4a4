(* Byte-level pins for the durable serving hot path (DESIGN §9/§10): the
   persisted formats (one fixed checkpoint image, one WAL segment, and every
   file a fixed durable run leaves on its device) are pinned to golden
   bytes, the table-driven CRC32 is checked against the bitwise reference
   kept here as the oracle, the reported image size and its Wal-category
   charge are tied to the bytes actually written, and the reader-side
   range query and the sort-once quantiles are checked against their naive
   definitions. *)

open Core

let hex s =
  String.concat ""
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.init (String.length s) (String.get s)))

let md5 s = Digest.to_hex (Digest.string s)

(* ------------------------------------------------------------------ *)
(* Golden bytes                                                        *)
(* ------------------------------------------------------------------ *)

(* Fixed tids, so the bytes do not depend on which tests ran first. *)
let golden_image =
  let t1 = Tuple.make ~tid:101 [| Value.Int 10; Value.Float 0.25; Value.Null |] in
  let t2 = Tuple.make ~tid:102 [| Value.Int 11; Value.Str "v"; Value.Bool true |] in
  {
    Checkpoint.ck_id = 3;
    ck_op_index = 17;
    ck_next_txn_id = 5;
    ck_strategy = "deferred";
    ck_base = [ t1; t2 ];
    ck_view = [ (t2, 2) ];
    ck_a_net = [ (t1, true) ];
    ck_d_net = [ (t2, false) ];
    ck_bloom_bits = "\x01\x02\x03\x04";
    ck_bloom_insertions = 9;
    ck_adaptive = [ ("kind", "immediate") ];
  }

let golden_image_hex =
  "564d4154434b5031fc000000bef92f6f03000000000000001100000000000000\
   0500000000000000080000006465666572726564020000006500000000000000\
   03000000020a0000000000000003000000000000d03f00660000000000000003\
   000000020b000000000000000401000000760101010000006600000000000000\
   03000000020b0000000000000004010000007601010200000000000000010000\
   00650000000000000003000000020a0000000000000003000000000000d03f00\
   0101000000660000000000000003000000020b00000000000000040100000076\
   0101000400000001020304090000000000000001000000040000006b696e6409\
   000000696d6d656469617465"

let test_golden_image () =
  let bytes = Checkpoint.to_bytes golden_image in
  Alcotest.(check string) "checkpoint image bytes" golden_image_hex (hex bytes);
  match Checkpoint.of_bytes bytes with
  | Ok im -> Alcotest.(check int) "decodes" 3 im.Checkpoint.ck_id
  | Error e -> Alcotest.fail e

(* One segment written through the real writer: two transactions with a
   group commit of 2, so the segment is exactly one force. *)
let golden_segment () =
  let ctx = Ctx.create () in
  let dev = Device.memory () in
  let wal = Wal.create ~config:(Wal.config ~group_commit:2 ()) ~ctx dev in
  let t1 = Tuple.make ~tid:7 [| Value.Int 1; Value.Str "x" |] in
  let t2 = Tuple.make ~tid:8 [| Value.Int 1; Value.Str "y" |] in
  List.iter
    (fun (before, after, op_index) ->
      let txn_id = Wal.begin_txn wal in
      Wal.append wal (Wal_record.Txn_begin { txn_id });
      Wal.append wal (Wal_record.Change { txn_id; before; after });
      Wal.append wal (Wal_record.Commit { txn_id; op_index });
      Wal.commit wal)
    [ (None, Some t1, 1); (Some t1, Some t2, 2) ];
  match Wal.segment_files dev with
  | [ (_, name) ] -> Option.get (Device.read dev ~name)
  | segs -> Alcotest.failf "expected one segment, got %d" (List.length segs)

let golden_segment_hex =
  "090000007300d83d010100000000000000260000000c0e1bb202010000000000\
   0000000107000000000000000200000002010000000000000004010000007811\
   000000363bb7f8030100000000000000010000000000000009000000900757b3\
   010200000000000000410000004b1d9c2d020200000000000000010700000000\
   0000000200000002010000000000000004010000007801080000000000000002\
   000000020100000000000000040100000079110000002788f05f030200000000\
   0000000200000000000000"

let test_golden_segment () =
  Alcotest.(check string) "wal segment bytes" golden_segment_hex (hex (golden_segment ()))

(* Every file a fixed durable deferred run leaves behind (log segments and
   checkpoint images), pinned by length and MD5. *)
let fixed_run_files () =
  let p = Experiment.scale Params.defaults 0.002 in
  let p = { p with Params.k_updates = 40.; l_per_txn = 3.; q_queries = 6. } in
  let spec =
    Crash_harness.spec ~seed:23
      ~config:(Wal.config ~group_commit:4 ~checkpoint_every:8 ~segment_bytes:2048 ())
      ~params:p (Crash_harness.Static Migrate.Deferred)
  in
  let dev = Device.memory () in
  (match Crash_harness.crash_into spec ~dev ~crash_at:max_int with
  | Ok _ -> ()
  | Error (label, _) -> Alcotest.failf "fixed run crashed at %s" label);
  List.map
    (fun name ->
      let data = Option.get (Device.read dev ~name) in
      Printf.sprintf "%s %d %s" name (String.length data) (md5 data))
    (Device.files dev)

let fixed_run_golden =
  [
    "ckpt-000001.img 11471 bb3727cfb5a39bfe9c3268840973ea6d";
    "ckpt-000002.img 11783 94f1c1045c03631f96b23568c323eac8";
    "ckpt-000003.img 12407 ff86e376d699fabed23da06d9ba40e65";
    "ckpt-000004.img 12407 d5f3b6683dcbadef9fecc529d8b40b1d";
    "ckpt-000005.img 13031 0d1b87a5246547a52715c6622eef71e3";
    "wal-000001.log 3240 ee06f3cc07ba2fa6b84c402298f2a0cb";
    "wal-000002.log 3265 7ea655a9465c76949636ec26e9730807";
    "wal-000003.log 3265 ce0acc7e6bf92377427e4b089b4273be";
    "wal-000004.log 3265 18ec246b999c05ce5b4a8b89568a67aa";
    "wal-000005.log 3265 02ee3bafe141b826dbbfeedf708d3e90";
    "wal-000006.log 25 2e9f34a0746f4553a008ab909b17e441";
  ]

let test_fixed_run_files () =
  Alcotest.(check (list string)) "device files" fixed_run_golden (fixed_run_files ())

(* ------------------------------------------------------------------ *)
(* CRC32: the table against the bitwise reference                      *)
(* ------------------------------------------------------------------ *)

(* The bitwise IEEE 802.3 reflected CRC32 the codec used before its table:
   eight shift/xor steps per byte, no state.  Kept here as the oracle. *)
let crc32_bitwise ?(init = 0xFFFFFFFF) s =
  let crc = ref init in
  String.iter
    (fun ch ->
      crc := !crc lxor Char.code ch;
      for _ = 1 to 8 do
        let lsb = !crc land 1 in
        crc := !crc lsr 1;
        if lsb = 1 then crc := !crc lxor 0xEDB88320
      done)
    s;
  !crc lxor 0xFFFFFFFF land 0xFFFFFFFF

let test_crc_table () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"table crc32 = bitwise crc32" ~count:1000
       QCheck.(triple (string_of_size Gen.(int_range 0 300)) (int_bound 0xFFFFFFFF) small_nat)
       (fun (s, init, cut) ->
         let pos = min cut (String.length s) in
         let len = String.length s - pos in
         Codec.crc32 s = crc32_bitwise s
         && Codec.crc32 ~init s = crc32_bitwise ~init s
         && Codec.crc32_sub s ~pos ~len = crc32_bitwise (String.sub s pos len)))

(* ------------------------------------------------------------------ *)
(* Image size: reported, charged and written are one number            *)
(* ------------------------------------------------------------------ *)

let test_image_size_accounting () =
  let p = { (Experiment.scale Params.defaults 0.002) with Params.k_updates = 10.; l_per_txn = 3. } in
  let setup = Experiment.model1_setup ~seed:9 p in
  let env = Experiment.model1_env p setup in
  let ctx = env.Strategy_sp.ctx in
  let metrics = Metrics.create () in
  Ctx.set_recorder ctx (Recorder.create ~metrics ());
  let dev = Device.memory () in
  let inner, hr = Strategy_sp.deferred_introspect env in
  let durable =
    Durable.wrap
      ~config:(Wal.config ~checkpoint_every:1_000_000 ())
      ~probe:(Durable.hr_probe hr) ~ctx ~dev ~initial:env.Strategy_sp.initial inner
  in
  List.iter
    (function Stream.Txn cs -> (Durable.strategy durable).Strategy.handle_transaction cs | _ -> ())
    setup.Experiment.ms_ops;
  Durable.flush durable;
  let meter = Ctx.meter ctx in
  let page_bytes = (Ctx.geometry ctx).Ctx.page_bytes in
  let pages bytes = max 1 ((bytes + page_bytes - 1) / page_bytes) in
  let before = Cost_meter.writes meter Cost_meter.Wal in
  Durable.checkpoint_now durable;
  let image =
    match Checkpoint.image_files dev with
    | [ (_, name) ] -> Option.get (Device.read dev ~name)
    | files -> Alcotest.failf "expected one image, got %d" (List.length files)
  in
  Alcotest.(check (option (float 0.)))
    "vmat_wal_image_bytes = bytes written"
    (Some (float_of_int (String.length image)))
    (Metrics.gauge_value metrics "vmat_wal_image_bytes");
  (* the image's pages, then one force of the checkpoint note *)
  let note = Wal_record.to_frame (Wal_record.Checkpoint_note { ckpt_id = 1; op_index = 10 }) in
  Alcotest.(check int) "Wal charge = pages of the bytes written"
    (pages (String.length image) + pages (String.length note))
    (Cost_meter.writes meter Cost_meter.Wal - before);
  (* recovery charges the reads of the very same bytes *)
  let rctx = Ctx.create ~geometry:(Ctx.geometry ctx) () in
  let scan = Recovery.scan ~ctx:rctx dev in
  Alcotest.(check bool) "recovery found the image" true (Option.is_some scan.Recovery.sc_image);
  let log_reads =
    List.fold_left
      (fun acc (_, name) -> acc + pages (String.length (Option.get (Device.read dev ~name))))
      0 (Wal.segment_files dev)
  in
  Alcotest.(check int) "recovery read charge = pages of image + log"
    (pages (String.length image) + log_reads)
    (Cost_meter.reads (Ctx.meter rctx) Cost_meter.Wal)

(* ------------------------------------------------------------------ *)
(* Snapshot.query = a filter over the rows                             *)
(* ------------------------------------------------------------------ *)

(* Cluster values from a small pool so that ties, duplicates and exact
   bound hits are common; some rows cluster on Null. *)
let cluster_gen =
  QCheck.Gen.(
    frequency
      [ (1, return Value.Null); (8, map (fun i -> Value.Float (float_of_int i /. 4.)) (int_bound 12)) ])

let bound_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return Strategy.min_sentinel);
        (1, return Strategy.max_sentinel);
        (6, map (fun i -> Value.Float ((float_of_int i /. 4.) -. 0.5)) (int_bound 16));
        (1, map (fun i -> Value.Float (float_of_int i /. 8.)) (int_bound 28));
      ])

let snapshot_case_gen =
  QCheck.Gen.(
    triple
      (list_size (int_bound 40) (pair cluster_gen (int_range 1 3)))
      bound_gen bound_gen)

let show_case (rows, lo, hi) =
  Printf.sprintf "%d rows [%s .. %s]" (List.length rows) (Value.to_string lo) (Value.to_string hi)

let test_snapshot_query () =
  let src = Tuple.source ~first:1 () in
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"Snapshot.query = filter over rows" ~count:2000
       (QCheck.make ~print:show_case snapshot_case_gen)
       (fun (rows, lo, hi) ->
         let rows =
           List.mapi
             (fun i (v, count) -> (Tuple.make ~tid:(Tuple.next src) [| Value.Int (i mod 7); v |], count))
             rows
         in
         let snap = Snapshot.of_rows ~cluster_col:1 ~epoch:0 ~txns:0 rows in
         let inside (tuple, _) =
           let v = Tuple.get tuple 1 in
           Value.compare v lo >= 0 && Value.compare v hi <= 0
         in
         let expect = List.filter inside (Snapshot.rows snap) in
         let got = Snapshot.query snap ~lo ~hi in
         List.length expect = List.length got && List.for_all2 ( == ) expect got))

(* ------------------------------------------------------------------ *)
(* Stats.quantiles = Stats.quantile = the per-quantile reference       *)
(* ------------------------------------------------------------------ *)

(* The per-quantile summary [Stats.quantile] computed before it shared the
   sort-once path: sort, then interpolate between the two order statistics
   around rank q (n - 1).  Kept here as the oracle. *)
let quantile_reference q samples =
  match samples with
  | [] -> 0.
  | [ x ] -> x
  | _ ->
      let a = Array.of_list (List.sort Float.compare samples) in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float (Float.floor pos) in
      let frac = pos -. float_of_int i in
      if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let test_quantiles () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"Stats.quantiles = Stats.quantile = reference" ~count:1000
       QCheck.(
         pair
           (list_of_size Gen.(int_bound 50) (float_bound_inclusive 1000.))
           (list_of_size Gen.(int_bound 6) (float_bound_inclusive 1.)))
       (fun (samples, qs) ->
         let qs = 0. :: 1. :: 0.5 :: qs in
         let expect = List.map (fun q -> quantile_reference q samples) qs in
         let arr = Array.of_list samples in
         List.equal Float.equal expect (Stats.quantiles qs arr)
         && List.equal Float.equal expect (List.map (fun q -> Stats.quantile q samples) qs)
         && arr = Array.of_list samples));
  Alcotest.check_raises "q outside [0, 1]"
    (Invalid_argument "Stats.quantile: q must be in [0, 1]")
    (fun () -> ignore (Stats.quantiles [ 0.5; 1.5 ] [| 1.; 2. |]))

let suites =
  [
    ( "bytes.golden",
      [
        Alcotest.test_case "checkpoint image" `Quick test_golden_image;
        Alcotest.test_case "wal segment" `Quick test_golden_segment;
        Alcotest.test_case "fixed durable run" `Quick test_fixed_run_files;
      ] );
    ( "bytes.hot-path",
      [
        Alcotest.test_case "table crc32 = bitwise (qcheck)" `Quick test_crc_table;
        Alcotest.test_case "image size reported = charged = written" `Quick
          test_image_size_accounting;
        Alcotest.test_case "snapshot query = filter (qcheck)" `Quick test_snapshot_query;
        Alcotest.test_case "quantiles = quantile = reference (qcheck)" `Quick test_quantiles;
      ] );
  ]
