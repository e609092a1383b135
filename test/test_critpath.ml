(* The critical-path profiler: the telescoping/zero-residual invariant on
   all three broadcast protocols, determinism across pool sizes, blame
   attribution of a planted link delay, round counts against E14's closed
   forms, and the offline JSONL round trip. *)

module R = Exper.Runner
module CP = Critpath

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let broadcast_protocols =
  [ Repdb.Protocol.Reliable; Repdb.Protocol.Causal; Repdb.Protocol.Atomic ]

let run_traced ?config ?(seed = 21) ?(txns = 40) proto =
  let r =
    R.run
      (R.spec ?config ~n_sites:3 ~txns_per_site:txns ~mpl:2 ~seed
         ~collect_spans:true ~collect_audit:true proto)
  in
  CP.explain
    ~spans:(Obs.Recorder.events r.R.recorder)
    ~audit:(Audit.Log.events r.R.audit)

(* ------------------------------------------------------------------ *)
(* The core invariant: every committed transaction's segments telescope
   from submit to decide — they sum exactly to the observed latency, the
   chain has no gaps or overlaps, and nothing lands in [Unattributed]. *)

let assert_telescoping paths =
  List.iter
    (fun p ->
      let sum =
        List.fold_left
          (fun acc (s : CP.segment) -> acc + (s.CP.sg_to_us - s.CP.sg_from_us))
          0 p.CP.p_segments
      in
      check_int "segments sum to latency" (CP.latency_us p) sum;
      (* contiguous chain: each segment starts where the previous ended *)
      ignore
        (List.fold_left
           (fun prev (s : CP.segment) ->
             check_int "segments contiguous" prev s.CP.sg_from_us;
             s.CP.sg_to_us)
           p.CP.p_submit_us p.CP.p_segments);
      check_bool "residual under 1us" true (p.CP.p_residual_us < 1))
    paths

let test_zero_residual () =
  List.iter
    (fun proto ->
      let paths = run_traced proto in
      check_bool "paths extracted" true (List.length paths > 0);
      assert_telescoping paths)
    broadcast_protocols

(* Batched wire frames exercise the batch-wait segment and the
   multiple-deliveries-per-instant disambiguation. *)
let test_zero_residual_batched () =
  let config =
    {
      (Repdb.Config.default ~n_sites:3) with
      Repdb.Config.batch =
        Some
          { Broadcast.Endpoint.max_msgs = 8; max_delay = Sim.Time.of_ms 1 };
      tx_time = Sim.Time.of_us 200;
    }
  in
  List.iter
    (fun proto ->
      let paths = run_traced ~config proto in
      check_bool "paths extracted" true (List.length paths > 0);
      assert_telescoping paths)
    broadcast_protocols

(* ------------------------------------------------------------------ *)
(* Determinism: the rendered report is byte-identical whether the runs
   feeding it execute on one domain or eight. *)

let test_jobs_invariance () =
  let report () =
    Parallel.map broadcast_protocols ~f:(fun proto ->
        CP.to_json (run_traced proto))
    |> String.concat "\n"
  in
  Parallel.set_jobs (Some 1);
  let one = report () in
  Parallel.set_jobs (Some 8);
  let eight = report () in
  Parallel.set_jobs None;
  check_string "blame report identical at jobs 1 vs 8" one eight

(* ------------------------------------------------------------------ *)
(* Blame attribution: planted delays must surface in the right segment.
   Both tests use the reliable protocol, whose decide waits on remote
   vote datagrams — real link crossings (the atomic protocol's decide
   rides its self-delivered commit request; its sequencer round trip is
   ordering wait, not link latency, by design). Committed sets differ
   across configs, so compare per-update-path means, not totals. *)

let mean_seg_us paths seg =
  let update = List.filter (fun p -> p.CP.p_hops > 0) paths in
  let total =
    List.fold_left
      (fun acc p ->
        acc
        + List.fold_left
            (fun a (s : CP.segment) ->
              if s.CP.sg_seg = seg then a + (s.CP.sg_to_us - s.CP.sg_from_us)
              else a)
            0 p.CP.p_segments)
      0 update
  in
  float_of_int total /. float_of_int (max 1 (List.length update))

let test_planted_link_delay () =
  (* Same run at 1ms vs 11ms constant link latency: the reliable path
     crosses two remote hops (commit request out, last vote back), so the
     planted 10ms must appear as ~20ms of extra link latency per update
     transaction — and nowhere else. *)
  let config ms =
    {
      (Repdb.Config.default ~n_sites:3) with
      Repdb.Config.latency = Net.Latency.Constant (Sim.Time.of_ms ms);
    }
  in
  let fast = run_traced ~config:(config 1) Repdb.Protocol.Reliable in
  let slow = run_traced ~config:(config 11) Repdb.Protocol.Reliable in
  assert_telescoping fast;
  assert_telescoping slow;
  let d seg = mean_seg_us slow seg -. mean_seg_us fast seg in
  let link_growth = d CP.Link_latency in
  if link_growth < 16_000.0 then
    Alcotest.failf "link latency did not absorb the planted delay: grew only %.0fus"
      link_growth;
  List.iter
    (fun seg ->
      check_bool
        (Printf.sprintf "%s did not absorb the delay" (CP.seg_name seg))
        true
        (d seg < link_growth /. 4.0))
    [ CP.Batch_wait; CP.Nic_serialize; CP.Lock_wait; CP.Unattributed ]

let test_planted_loss_burst () =
  (* Lossy links with a 2ms ARQ timeout: retries ride inside the datagram
     arrival time, so the inflation must show up as link latency while
     the residual stays zero. *)
  let lossy =
    {
      (Repdb.Config.default ~n_sites:3) with
      Repdb.Config.loss =
        Some
          {
            Net.Network.drop_probability = 0.25;
            rto = Sim.Time.of_ms 2;
          };
    }
  in
  let clean = run_traced Repdb.Protocol.Reliable in
  let noisy = run_traced ~config:lossy Repdb.Protocol.Reliable in
  assert_telescoping noisy;
  check_bool "retries inflated link latency" true
    (mean_seg_us noisy CP.Link_latency > mean_seg_us clean CP.Link_latency)

(* ------------------------------------------------------------------ *)
(* Round counts: with a single loaded site (so no unrelated traffic can
   stand in for acknowledgments) the walked path's tagged delivery hops
   must match the protocols' closed-form round depths — reliable 2,
   causal 2, atomic 1. Matches experiment E17's cross-check of E14. *)

let test_rounds_match_closed_forms () =
  let config =
    {
      (Repdb.Config.default ~n_sites:3) with
      Repdb.Config.latency = Net.Latency.Constant (Sim.Time.of_ms 1);
    }
  in
  let profile =
    { Workload.default with Workload.ro_fraction = 0.0; writes_per_txn = 4 }
  in
  let window =
    { R.warmup = Sim.Time.of_ms 100; measure = Sim.Time.of_sec 1.0 }
  in
  List.iter
    (fun (proto, expect) ->
      let r =
        R.run
          (R.spec ~config ~profile ~window ~mpl:1 ~clients_on:[ 1 ] ~seed:14
             ~collect_spans:true ~collect_audit:true ~n_sites:3 proto)
      in
      let paths =
        CP.explain
          ~spans:(Obs.Recorder.events r.R.recorder)
          ~audit:(Audit.Log.events r.R.audit)
      in
      check_bool "paths extracted" true (List.length paths > 0);
      assert_telescoping paths;
      List.iter
        (fun p ->
          check_int
            (Printf.sprintf "%s rounds (txn %d.%d)" (Repdb.Protocol.name proto)
               p.CP.p_origin p.CP.p_local)
            expect p.CP.p_rounds)
        paths)
    [
      (Repdb.Protocol.Reliable, 2);
      (Repdb.Protocol.Causal, 2);
      (Repdb.Protocol.Atomic, 1);
    ]

(* ------------------------------------------------------------------ *)
(* Offline round trip: explain over a written trace file's lines equals
   explain over the in-memory streams. *)

let test_offline_round_trip () =
  let r =
    R.run
      (R.spec ~n_sites:3 ~txns_per_site:30 ~mpl:2 ~seed:9 ~collect_spans:true
         ~collect_audit:true Repdb.Protocol.Causal)
  in
  let spans = Obs.Recorder.events r.R.recorder in
  let direct =
    CP.to_json (CP.explain ~spans ~audit:(Audit.Log.events r.R.audit))
  in
  let jsonl =
    Obs.Export.jsonl ~extra:(Audit.Log.export_lines r.R.audit) spans
  in
  let lines = String.split_on_char '\n' jsonl in
  match CP.of_trace_lines lines with
  | Error e -> Alcotest.failf "trace parse failed: %s" e
  | Ok (n, spans', audit') ->
    check_int "site count" 3 n;
    let offline = CP.to_json (CP.explain ~spans:spans' ~audit:audit') in
    check_string "offline report equals in-memory report" direct offline

let test_missing_audit_errors () =
  match CP.of_trace_lines [ "{\"stream\":\"span\",\"ts_us\":0,\"site\":0,\"txn\":null,\"phase\":\"submit\",\"kind\":\"i\",\"note\":\"\"}" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an error without an audit stream"

let () =
  Alcotest.run "critpath"
    [
      ( "invariants",
        [
          Alcotest.test_case "zero residual, all protocols" `Quick
            test_zero_residual;
          Alcotest.test_case "zero residual under batching" `Quick
            test_zero_residual_batched;
          Alcotest.test_case "byte-identical at jobs 1 vs 8" `Quick
            test_jobs_invariance;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "planted link delay blames the link" `Quick
            test_planted_link_delay;
          Alcotest.test_case "loss burst inflates link latency" `Quick
            test_planted_loss_burst;
          Alcotest.test_case "rounds match E14 closed forms" `Quick
            test_rounds_match_closed_forms;
        ] );
      ( "offline",
        [
          Alcotest.test_case "jsonl round trip" `Quick test_offline_round_trip;
          Alcotest.test_case "missing audit stream errors" `Quick
            test_missing_audit_errors;
        ] );
    ]
