(* The time-series telemetry sampler: tick cadence, gauge/delta probe
   semantics, the registration-before-first-tick contract, disabled-mode
   cost, export round-trips, and byte-identical series at pool sizes
   1 vs 8. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let check_float name expected got =
  Alcotest.(check (float 1e-9)) name expected got

let with_jobs n f =
  Parallel.set_jobs (Some n);
  Fun.protect ~finally:(fun () -> Parallel.set_jobs None) f

let contains s sub =
  let n = String.length sub in
  let last = String.length s - n in
  let rec go i =
    i <= last && (String.sub s i n = sub || go (i + 1))
  in
  n = 0 || go 0

let lines s = String.split_on_char '\n' (String.trim s)

(* ---------------------------------------------------------------- *)
(* Cadence                                                          *)
(* ---------------------------------------------------------------- *)

let test_cadence () =
  let engine = Sim.Engine.create ~seed:1 () in
  let s = Obs.Sampler.create ~interval:(Sim.Time.of_ms 10) () in
  Obs.Sampler.register s ~name:"x" (fun () -> 1.0);
  Obs.Sampler.attach s engine;
  Sim.Engine.run_until engine (Sim.Time.of_ms 35);
  let stamps =
    List.map (fun (at, _) -> Sim.Time.to_us at) (Obs.Sampler.samples s)
  in
  (* first tick at t=0 (scheduled, not inline), then every 10ms *)
  Alcotest.(check (list int)) "ticks at 0/10/20/30 ms"
    [ 0; 10_000; 20_000; 30_000 ]
    stamps

let test_run_shorter_than_interval () =
  let engine = Sim.Engine.create ~seed:1 () in
  let s = Obs.Sampler.create ~interval:(Sim.Time.of_sec 1.0) () in
  Obs.Sampler.register s ~name:"x" (fun () -> 42.0);
  Obs.Sampler.attach s engine;
  Sim.Engine.run_until engine (Sim.Time.of_ms 10);
  (* even a run shorter than one interval records its t=0 snapshot *)
  check_int "one sample" 1 (List.length (Obs.Sampler.samples s));
  match Obs.Sampler.samples s with
  | [ (_, row) ] -> check_float "snapshot value" 42.0 row.(0)
  | _ -> Alcotest.fail "expected exactly one row"

let test_attach_idempotent () =
  let engine = Sim.Engine.create ~seed:1 () in
  let s = Obs.Sampler.create ~interval:(Sim.Time.of_ms 10) () in
  Obs.Sampler.register s ~name:"x" (fun () -> 0.0);
  Obs.Sampler.attach s engine;
  Obs.Sampler.attach s engine;
  Sim.Engine.run_until engine (Sim.Time.of_ms 25);
  check_int "no duplicate tick loop" 3 (List.length (Obs.Sampler.samples s))

let test_register_after_tick_raises () =
  let s = Obs.Sampler.create ~interval:(Sim.Time.of_ms 1) () in
  Obs.Sampler.register s ~name:"early" (fun () -> 0.0);
  Obs.Sampler.tick s ~at:Sim.Time.zero;
  match Obs.Sampler.register s ~name:"late" (fun () -> 0.0) with
  | () -> Alcotest.fail "registration after the first tick must raise"
  | exception Invalid_argument _ -> ()

let test_bad_interval_raises () =
  match Obs.Sampler.create ~interval:Sim.Time.zero () with
  | _ -> Alcotest.fail "zero interval must raise"
  | exception Invalid_argument _ -> ()

(* ---------------------------------------------------------------- *)
(* Probe semantics                                                  *)
(* ---------------------------------------------------------------- *)

let test_rows_follow_registration_order () =
  let s = Obs.Sampler.create ~interval:(Sim.Time.of_ms 1) () in
  Obs.Sampler.register s ~name:"a" (fun () -> 1.0);
  Obs.Sampler.register s ~name:"b" (fun () -> 2.0);
  Obs.Sampler.register s ~name:"c" (fun () -> 3.0);
  Obs.Sampler.tick s ~at:Sim.Time.zero;
  (match Obs.Sampler.probes s with
  | [ ("a", _); ("b", _); ("c", _) ] -> ()
  | _ -> Alcotest.fail "probes not in registration order");
  match Obs.Sampler.samples s with
  | [ (_, row) ] ->
    check_float "col a" 1.0 row.(0);
    check_float "col b" 2.0 row.(1);
    check_float "col c" 3.0 row.(2)
  | _ -> Alcotest.fail "expected one row"

let test_delta_probe () =
  let s = Obs.Sampler.create ~interval:(Sim.Time.of_ms 1) () in
  let counter = ref 5.0 in
  Obs.Sampler.register s ~name:"d" ~kind:Obs.Sampler.Delta (fun () -> !counter);
  (* first tick measures from registration time (counter was 5) *)
  Obs.Sampler.tick s ~at:Sim.Time.zero;
  counter := 12.0;
  Obs.Sampler.tick s ~at:(Sim.Time.of_ms 1);
  Obs.Sampler.tick s ~at:(Sim.Time.of_ms 2);
  let deltas =
    List.map (fun (_, row) -> row.(0)) (Obs.Sampler.samples s)
  in
  Alcotest.(check (list (float 1e-9))) "per-tick increases" [ 0.0; 7.0; 0.0 ]
    deltas;
  (* final_values reports the cumulative increase since registration *)
  match Obs.Sampler.final_values s with
  | [ (("d", []), v) ] -> check_float "cumulative delta" 7.0 v
  | _ -> Alcotest.fail "expected one final value"

let test_labels_sorted () =
  let s = Obs.Sampler.create ~interval:(Sim.Time.of_ms 1) () in
  Obs.Sampler.register s ~name:"x"
    ~labels:[ ("site", "3"); ("proto", "atomic") ]
    (fun () -> 0.0);
  match Obs.Sampler.probes s with
  | [ ("x", [ ("proto", "atomic"); ("site", "3") ]) ] -> ()
  | _ -> Alcotest.fail "labels not sorted by key"

(* ---------------------------------------------------------------- *)
(* Disabled mode                                                    *)
(* ---------------------------------------------------------------- *)

let test_disabled_is_inert () =
  let s = Obs.Sampler.none in
  check_bool "disabled" false (Obs.Sampler.enabled s);
  Obs.Sampler.register s ~name:"x" (fun () -> 1.0);
  Obs.Sampler.tick s ~at:Sim.Time.zero;
  check_int "no probes" 0 (List.length (Obs.Sampler.probes s));
  check_int "no rows" 0 (List.length (Obs.Sampler.samples s));
  check_int "no finals" 0 (List.length (Obs.Sampler.final_values s))

let test_disabled_allocation_free () =
  let s = Obs.Sampler.none in
  (* pre-built arguments: the loop must measure the disabled calls, not
     the construction of labels or closures *)
  let labels = [ ("site", "0") ] in
  let probe = fun () -> 0.0 in
  let at = Sim.Time.of_us 1 in
  let iters = 100_000 in
  (* warm-up (and let any one-time lazy setup allocate now) *)
  for _ = 1 to 1_000 do
    Obs.Sampler.register s ~name:"gate" ~labels probe;
    Obs.Sampler.tick s ~at
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    Obs.Sampler.register s ~name:"gate" ~labels probe;
    Obs.Sampler.tick s ~at
  done;
  let dw = Gc.minor_words () -. w0 in
  (* a handful of words of measurement boxing is fine; one word per
     iteration would be 100k *)
  if dw > 64.0 then
    Alcotest.failf "disabled register+tick allocated %.0f minor words" dw

(* ---------------------------------------------------------------- *)
(* Export                                                           *)
(* ---------------------------------------------------------------- *)

let sample_sampler () =
  let s = Obs.Sampler.create ~interval:(Sim.Time.of_ms 1) () in
  let c = ref 0.0 in
  Obs.Sampler.register s ~name:"depth" ~labels:[ ("site", "0") ]
    (fun () -> 2.5);
  Obs.Sampler.register s ~name:"rate" ~kind:Obs.Sampler.Delta (fun () -> !c);
  (* a count past six significant digits must print exactly *)
  Obs.Sampler.register s ~name:"words" (fun () -> 1_234_567.0);
  Obs.Sampler.tick s ~at:Sim.Time.zero;
  c := 4.0;
  Obs.Sampler.tick s ~at:(Sim.Time.of_ms 1);
  s

let test_jsonl_shape () =
  let s = sample_sampler () in
  let out = lines (Obs.Sampler.to_jsonl s) in
  check_int "header + 2 rows" 3 (List.length out);
  let header = List.hd out in
  check_bool "header has schema" true
    (contains header "\"stream\":\"series\",\"schema\":1");
  check_bool "header has interval" true (contains header "\"interval_us\":1000");
  check_bool "header names probes" true
    (contains header
       "{\"name\":\"depth\",\"labels\":{\"site\":\"0\"},\"kind\":\"gauge\"}");
  check_bool "header marks delta kind" true (contains header "\"kind\":\"delta\"");
  (match List.tl out with
  | [ r0; r1 ] ->
    check_string "row 0"
      "{\"stream\":\"series\",\"ts_us\":0,\"values\":[2.5,0,1234567]}" r0;
    check_string "row 1"
      "{\"stream\":\"series\",\"ts_us\":1000,\"values\":[2.5,4,1234567]}" r1
  | _ -> Alcotest.fail "expected two rows")

let test_jsonl_nonfinite () =
  let s = Obs.Sampler.create ~interval:(Sim.Time.of_ms 1) () in
  Obs.Sampler.register s ~name:"inf" (fun () -> infinity);
  Obs.Sampler.tick s ~at:Sim.Time.zero;
  (* JSON numbers cannot be infinite: non-finite values become strings *)
  check_bool "inf rendered as string" true
    (contains (Obs.Sampler.to_jsonl s) "\"values\":[\"+inf\"]")

let test_csv_shape () =
  let s = sample_sampler () in
  match lines (Obs.Sampler.to_csv s) with
  | [ header; r0; r1 ] ->
    check_string "csv header" "ts_us,depth{site=0},rate,words" header;
    check_string "csv row 0" "0,2.5,0,1234567" r0;
    check_string "csv row 1" "1000,2.5,4,1234567" r1
  | out -> Alcotest.failf "expected 3 csv lines, got %d" (List.length out)

let test_write_file_dispatch () =
  let s = sample_sampler () in
  let read path =
    let ic = open_in path in
    let n = in_channel_length ic in
    let contents = really_input_string ic n in
    close_in ic;
    contents
  in
  let csv = Filename.temp_file "sampler" ".csv" in
  let jsonl = Filename.temp_file "sampler" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove csv;
      Sys.remove jsonl)
    (fun () ->
      Obs.Sampler.write_file s ~path:csv;
      Obs.Sampler.write_file s ~path:jsonl;
      check_string ".csv gets CSV" (Obs.Sampler.to_csv s) (read csv);
      check_string "else gets JSONL" (Obs.Sampler.to_jsonl s) (read jsonl))

(* ---------------------------------------------------------------- *)
(* Sampled protocol runs                                            *)
(* ---------------------------------------------------------------- *)

let sampled_spec proto =
  Exper.Runner.spec ~n_sites:3 ~txns_per_site:30 ~mpl:2 ~seed:7
    ~sample_every:(Sim.Time.of_ms 1) proto

let test_run_wires_probe_catalogue () =
  let r = Exper.Runner.run (sampled_spec Repdb.Protocol.Atomic) in
  let sampler = r.Exper.Runner.sampler in
  check_bool "sampler enabled" true (Obs.Sampler.enabled sampler);
  check_bool "has samples" true (Obs.Sampler.samples sampler <> []);
  let names = List.map fst (Obs.Sampler.probes sampler) in
  List.iter
    (fun expected ->
      check_bool (expected ^ " registered") true (List.mem expected names))
    [
      "sim_events_pending"; "sim_events_processed"; "gc_minor_words";
      "net_in_flight"; "net_busy_links"; "net_tx_backlog_us"; "net_drops";
      "bcast_delay_depth"; "bcast_open_frame"; "bcast_order_backlog";
      "bcast_unassigned"; "bcast_reliable"; "bcast_causal"; "bcast_total";
      "app_deliver"; "view_change"; "frames"; "db_locks_held";
      "db_lock_waiters"; "db_lock_granted"; "db_lock_queued";
      "db_lock_refused"; "proto_outstanding";
    ]

(* The endpoint's event counters, read as delta-probe totals, against the
   audit log of the same fault-free run: per site, the broadcasts sent in
   each class, the application deliveries, and the wire frames (the
   distinct frame ids on its sends). *)
let test_counters_match_audit () =
  let n = 3 in
  let run proto batch =
    let config = { (Repdb.Config.default ~n_sites:n) with Repdb.Config.batch } in
    Exper.Runner.run
      (Exper.Runner.spec ~config ~n_sites:n ~txns_per_site:20 ~mpl:2 ~seed:7
         ~collect_audit:true ~sample_every:(Sim.Time.of_ms 1) proto)
  in
  List.iter
    (fun proto ->
      List.iter
        (fun batch ->
          let r = run proto batch in
          let totals = Obs.Sampler.final_values r.Exper.Runner.sampler in
          let events = Audit.Log.events r.Exper.Runner.audit in
          let label what site =
            Printf.sprintf "%s%s site %d: %s" (Repdb.Protocol.name proto)
              (if batch = None then "" else " in frames")
              site what
          in
          for site = 0 to n - 1 do
            let total name =
              int_of_float
                (List.assoc (name, [ ("site", string_of_int site) ]) totals)
            in
            let sends =
              List.filter_map
                (function
                  | Audit.Event.Send { msg; frame; _ }
                    when msg.Audit.Event.origin = site ->
                    Some (msg.Audit.Event.cls, frame)
                  | _ -> None)
                events
            in
            let delivers =
              List.filter
                (function
                  | Audit.Event.Deliver { site = s; _ } -> s = site
                  | _ -> false)
                events
            in
            List.iter
              (fun (cls, name) ->
                check_int (label name site)
                  (List.length (List.filter (fun (c, _) -> c = cls) sends))
                  (total name))
              Audit.Event.
                [ (R, "bcast_reliable"); (C, "bcast_causal");
                  (T, "bcast_total") ];
            check_int (label "app_deliver" site) (List.length delivers)
              (total "app_deliver");
            check_int (label "frames" site)
              (List.length
                 (List.sort_uniq compare (List.filter_map snd sends)))
              (total "frames")
          done)
        [ None;
          Some { Broadcast.Endpoint.max_msgs = 4; max_delay = Sim.Time.of_ms 1 };
        ])
    Repdb.Protocol.broadcast_based

let test_run_disabled_by_default () =
  let spec = Exper.Runner.spec ~n_sites:3 ~txns_per_site:10 ~seed:7
      Repdb.Protocol.Atomic in
  let r = Exper.Runner.run spec in
  check_bool "sampler disabled" false
    (Obs.Sampler.enabled r.Exper.Runner.sampler)

let test_sampling_does_not_perturb () =
  (* the telemetry ticks are extra engine events: they must not change
     what the simulation computes *)
  let bare =
    Exper.Runner.run
      (Exper.Runner.spec ~n_sites:3 ~txns_per_site:30 ~mpl:2 ~seed:7
         Repdb.Protocol.Causal)
  in
  let sampled = Exper.Runner.run (sampled_spec Repdb.Protocol.Causal) in
  check_int "committed unchanged" bare.Exper.Runner.committed
    sampled.Exper.Runner.committed;
  check_int "aborted unchanged" bare.Exper.Runner.aborted
    sampled.Exper.Runner.aborted;
  check_int "datagrams unchanged" bare.Exper.Runner.datagrams
    sampled.Exper.Runner.datagrams;
  (* The same for a windowed run like those behind E15-E17, with spans and
     audit on too: one fully instrumented run computes what a bare run
     does, and the audit stream that an audit-only run does. *)
  let window =
    { Exper.Runner.warmup = Sim.Time.of_ms 50; measure = Sim.Time.of_ms 200 }
  in
  let clients_on = [ 1; 2 ] in
  let windowed ~spans ~audit ~sample proto =
    let config =
      {
        (Repdb.Config.default ~n_sites:3) with
        Repdb.Config.batch =
          Some
            { Broadcast.Endpoint.max_msgs = 4; max_delay = Sim.Time.of_ms 1 };
        tx_time = Sim.Time.of_us 200;
        atomic_batch_writes = true;
      }
    in
    Exper.Runner.run
      (Exper.Runner.spec ~config ~window ~mpl:4 ~clients_on ~seed:15
         ~collect_spans:spans ~collect_audit:audit
         ?sample_every:(if sample then Some (Sim.Time.of_ms 10) else None)
         ~n_sites:3 proto)
  in
  List.iter
    (fun proto ->
      let label what = Repdb.Protocol.name proto ^ ": " ^ what in
      let bare = windowed ~spans:false ~audit:false ~sample:false proto in
      let audited = windowed ~spans:false ~audit:true ~sample:false proto in
      let full = windowed ~spans:true ~audit:true ~sample:true proto in
      check_bool (label "fully instrumented") true
        (Obs.Recorder.events full.Exper.Runner.recorder <> []
        && Obs.Sampler.samples full.Exper.Runner.sampler <> []);
      check_bool (label "commits in the window") true
        (bare.Exper.Runner.committed > 0);
      check_bool (label "sequencer traffic counted") true
        (proto <> Repdb.Protocol.Atomic
        || Audit.Accounting.order_wire_msgs
             (Audit.Log.events audited.Exper.Runner.audit)
           > 0);
      (* The window's own rules: only the client sites originate
         transactions, and decisions in the warm-up and the drain are not
         counted. *)
      let txns = Verify.History.txns bare.Exper.Runner.history in
      check_bool (label "only client sites originate") true
        (List.for_all
           (fun r -> List.mem r.Verify.History.origin clients_on)
           txns);
      check_bool (label "warm-up and drain decisions excluded") true
        (bare.Exper.Runner.committed + bare.Exper.Runner.aborted
        < List.length
            (List.filter (fun r -> r.Verify.History.outcome <> None) txns));
      let p50_p95 (r : Exper.Runner.result) =
        List.map
          (Stats.Summary.percentile r.Exper.Runner.latency_ms)
          [ 0.5; 0.95 ]
      in
      List.iter
        (fun (r : Exper.Runner.result) ->
          check_int (label "committed") bare.Exper.Runner.committed
            r.Exper.Runner.committed;
          check_int (label "aborted") bare.Exper.Runner.aborted
            r.Exper.Runner.aborted;
          check_int (label "datagrams") bare.Exper.Runner.datagrams
            r.Exper.Runner.datagrams;
          Alcotest.(check (list (float 1e-9)))
            (label "p50, p95") (p50_p95 bare) (p50_p95 r))
        [ audited; full ];
      check_bool (label "audit stream unchanged") true
        (Audit.Log.events audited.Exper.Runner.audit
        = Audit.Log.events full.Exper.Runner.audit))
    Repdb.Protocol.broadcast_based

let series_at_jobs n =
  with_jobs n (fun () ->
      Parallel.map
        [ Repdb.Protocol.Atomic; Repdb.Protocol.Causal;
          Repdb.Protocol.Reliable ]
        ~f:(fun proto ->
          let r = Exper.Runner.run (sampled_spec proto) in
          Obs.Sampler.to_jsonl r.Exper.Runner.sampler))

let test_series_identical_across_pool_sizes () =
  Alcotest.(check (list string))
    "sampled series byte-identical at jobs 1 vs 8" (series_at_jobs 1)
    (series_at_jobs 8)

(* ---------------------------------------------------------------- *)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "sampler"
    [
      ( "cadence",
        [
          tc "ticks on the interval from t=0" `Quick test_cadence;
          tc "short run still snapshots once" `Quick
            test_run_shorter_than_interval;
          tc "attach is idempotent" `Quick test_attach_idempotent;
          tc "register after first tick raises" `Quick
            test_register_after_tick_raises;
          tc "non-positive interval raises" `Quick test_bad_interval_raises;
        ] );
      ( "probes",
        [
          tc "rows follow registration order" `Quick
            test_rows_follow_registration_order;
          tc "delta probes record per-tick increases" `Quick test_delta_probe;
          tc "labels kept sorted" `Quick test_labels_sorted;
        ] );
      ( "disabled",
        [
          tc "disabled sampler is inert" `Quick test_disabled_is_inert;
          tc "disabled register+tick allocation-free" `Quick
            test_disabled_allocation_free;
        ] );
      ( "export",
        [
          tc "jsonl header and rows" `Quick test_jsonl_shape;
          tc "non-finite values stay valid JSON" `Quick test_jsonl_nonfinite;
          tc "csv header and rows" `Quick test_csv_shape;
          tc "write_file dispatches on extension" `Quick
            test_write_file_dispatch;
        ] );
      ( "runs",
        [
          tc "sampled run wires the probe catalogue" `Slow
            test_run_wires_probe_catalogue;
          tc "endpoint counters match the audit log" `Slow
            test_counters_match_audit;
          tc "sampling off by default" `Quick test_run_disabled_by_default;
          tc "sampling does not perturb the run" `Slow
            test_sampling_does_not_perturb;
          tc "series byte-identical at jobs 1 vs 8" `Slow
            test_series_identical_across_pool_sizes;
        ] );
    ]
