(* Benchmark harness: regenerates every table/figure of the evaluation
   (E1-E17, see DESIGN.md and EXPERIMENTS.md), then runs Bechamel
   micro-benchmarks of the hot path behind each experiment.

   Simulation runs execute on the Parallel domain pool (sized by
   BCASTDB_JOBS, default Domain.recommended_domain_count); tables are
   byte-identical whatever the pool size. Timings and micro-benchmark
   estimates are also written to BENCH_<iso-date>.json so successive PRs
   can track the performance trajectory.

   Usage: dune exec bench/main.exe [-- --quick] [-- --tables-only]. *)

let quick = Array.exists (( = ) "--quick") Sys.argv
let tables_only = Array.exists (( = ) "--tables-only") Sys.argv
let micro_only = Array.exists (( = ) "--micro-only") Sys.argv
let markdown = Array.exists (( = ) "--markdown") Sys.argv
let no_json = Array.exists (( = ) "--no-json") Sys.argv
let gate_obs = Array.exists (( = ) "--gate-obs") Sys.argv

(* ------------------------------------------------------------------ *)
(* Paper tables, timed per experiment *)

(* The saturation sweep feeds the E15/E16/E17 tables and their JSON
   series; one lazy value shares a single run of it between the three
   tables (charged to E15's wall line) and the JSON writer. *)
let sweep = lazy (Exper.Experiments.saturation ~quick ())

let write_e16_series rows =
  let knees = Exper.Experiments.e16_knees rows in
  List.iter
    (fun (k : Exper.Experiments.e16_knee) ->
      match
        List.find_opt
          (fun (r : Exper.Experiments.load_row) ->
            r.Exper.Experiments.load_protocol
            = k.Exper.Experiments.e16k_protocol
            && r.Exper.Experiments.load_batch = k.Exper.Experiments.e16k_batch)
          rows
      with
      | None -> ()
      | Some r ->
        let file =
          Printf.sprintf "E16_series_%s.jsonl"
            r.Exper.Experiments.load_protocol
        in
        let oc = open_out file in
        output_string oc r.Exper.Experiments.load_series;
        close_out oc;
        Printf.printf "wrote %s (telemetry at the knee, batch=%d)\n" file
          r.Exper.Experiments.load_batch)
    knees

let print_tables () =
  List.map
    (fun (id, experiment) ->
      let t0 = Unix.gettimeofday () in
      let table = experiment () in
      let wall = Unix.gettimeofday () -. t0 in
      Printf.printf "\n";
      if markdown then print_string (Stats.Table.render_markdown table)
      else Stats.Table.print table;
      (id, wall))
    (Exper.Experiments.registry ~quick ~sweep ())

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one per table, measuring the mechanism the
   corresponding experiment leans on. *)

let bench_reliable_roundtrip () =
  (* E1's subject: a broadcast fanned out and delivered *)
  let engine = Sim.Engine.create ~seed:1 () in
  let group =
    Broadcast.Endpoint.create_group engine ~n:3
      ~latency:(Net.Latency.Constant (Sim.Time.of_us 100)) ()
  in
  let eps = Broadcast.Endpoint.endpoints group in
  Array.iter (fun ep -> Broadcast.Endpoint.set_deliver ep (fun _ -> ())) eps;
  fun () ->
    ignore (Broadcast.Endpoint.broadcast eps.(0) `Reliable 0);
    Sim.Engine.run_until engine
      (Sim.Time.add (Sim.Engine.now engine) (Sim.Time.of_ms 1))

let bench_delay_queue () =
  (* E2's subject: causal hold-back bookkeeping *)
  fun () ->
    let q = Broadcast.Delay_queue.create ~n:4 in
    for i = 1 to 8 do
      let vc = Array.make 4 0 in
      vc.(0) <- i;
      ignore
        (Broadcast.Delay_queue.offer q ~origin:0
           ~vc:(Lclock.Vector_clock.of_array vc) i)
    done

let bench_vector_clock () =
  (* E3's subject: causality tests behind implicit acknowledgments *)
  let a = Lclock.Vector_clock.of_array [| 5; 9; 2; 7; 1 |] in
  let b = Lclock.Vector_clock.of_array [| 5; 8; 3; 7; 1 |] in
  fun () ->
    ignore (Lclock.Vector_clock.compare_causal a b);
    ignore (Lclock.Vector_clock.merge a b)

let bench_lock_cycle () =
  (* E4's subject: acquire/refuse/release under no-wait *)
  let txn i = Db.Txn_id.make ~origin:0 ~local:i in
  fun () ->
    let lm =
      Db.Lock_manager.create ~policy:Db.Lock_manager.No_wait
        ~on_grant:(fun _ _ _ -> ())
        ()
    in
    ignore (Db.Lock_manager.acquire lm ~txn:(txn 1) 1 Db.Lock_manager.Exclusive);
    ignore (Db.Lock_manager.acquire lm ~txn:(txn 2) 1 Db.Lock_manager.Exclusive);
    Db.Lock_manager.release_all lm (txn 1)

let bench_atomic_txn () =
  (* E5's subject: one update transaction end to end (atomic protocol) *)
  fun () ->
    let engine = Sim.Engine.create ~seed:2 () in
    let history = Verify.History.create () in
    let module P = Repdb.Atomic_proto in
    let sys = P.create engine (Repdb.Config.default ~n_sites:3) ~history in
    ignore
      (P.submit sys ~origin:0 (Repdb.Op.write_only [ (1, 1) ]) ~on_done:(fun _ -> ()));
    Sim.Engine.run_until engine (Sim.Time.of_ms 50)

let bench_wfg_detection () =
  (* E6's subject: waits-for-graph cycle search *)
  let txn i = Db.Txn_id.make ~origin:(i mod Net.Site_id.max_sites) ~local:i in
  let edges = List.init 100 (fun i -> (txn i, txn ((i + 1) mod 101))) in
  fun () -> ignore (Db.Deadlock.find_cycle edges)

let bench_store_apply () =
  (* E7's subject: installing replicated write sets *)
  fun () ->
    let store = Db.Version_store.create () in
    for i = 0 to 19 do
      ignore (Db.Version_store.apply store [ (i, i) ])
    done

let bench_snapshot_read () =
  (* E8's subject: read-only snapshot reads, at the current commit index *)
  let store = Db.Version_store.create () in
  for i = 1 to 50 do
    ignore (Db.Version_store.apply store [ (i mod 10, i) ])
  done;
  fun () ->
    for k = 0 to 9 do
      ignore (Db.Version_store.read_latest store k)
    done

let bench_order_state () =
  (* E9's subject: total-order bookkeeping *)
  let mid i = { Broadcast.Msg_id.origin = 0; cls = Broadcast.Msg_id.Total; seq = i } in
  fun () ->
    let o = Broadcast.Order_state.create () in
    for i = 0 to 15 do
      ignore (Broadcast.Order_state.note_arrival o (mid i) i);
      ignore (Broadcast.Order_state.note_order o (mid i) ~global_seq:i)
    done

let bench_obs_disabled () =
  (* E13's guard: every protocol is instrumented, so disabled-mode
     observability must stay a single predictable branch per call *)
  let obs = Obs.Recorder.none in
  fun () ->
    for i = 1 to 100 do
      let at = Sim.Time.of_us i in
      Obs.Recorder.submit obs ~at ~site:0 ~origin:0 ~local:i;
      Obs.Recorder.phase_begin obs ~at ~site:0 ~origin:0 ~local:i
        Obs.Span.Broadcast;
      Obs.Recorder.decide obs ~at ~site:0 ~origin:0 ~local:i ~committed:true
    done

let bench_fault_plan () =
  (* The fuzz loop's per-seed overhead: derive a schedule and compile it
     into engine events. Must stay negligible next to the run itself. *)
  fun () ->
    let _, plan = Chaos.plan_of_seed Chaos.default_cfg ~seed:17 in
    ignore (Chaos.Fault_plan.events plan)

let run_micro () =
  let open Bechamel in
  let stage name f = Test.make ~name (Staged.stage (f ())) in
  let tests =
    Test.make_grouped ~name:"bcastdb"
      [
        stage "e1: reliable broadcast roundtrip" bench_reliable_roundtrip;
        stage "e2: causal delay queue (8 offers)" bench_delay_queue;
        stage "e3: vector clock compare+merge" bench_vector_clock;
        stage "e4: no-wait lock conflict cycle" bench_lock_cycle;
        stage "e5: atomic protocol txn end-to-end" bench_atomic_txn;
        stage "e6: waits-for cycle search (100 edges)" bench_wfg_detection;
        stage "e7: apply 20 write sets" bench_store_apply;
        stage "e8: snapshot read (10 keys)" bench_snapshot_read;
        stage "e9: total-order bookkeeping (16 msgs)" bench_order_state;
        stage "e13: obs disabled (300 calls)" bench_obs_disabled;
        stage "fuzz: fault plan generate+compile" bench_fault_plan;
      ]
  in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if quick then 0.25 else 1.0))
      ()
  in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let results =
    Analyze.all
      (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |])
      Toolkit.Instance.monotonic_clock raw
  in
  let table =
    Stats.Table.create ~title:"Micro-benchmarks (ns per operation)"
      ~columns:[ "benchmark"; "ns/op" ]
  in
  let estimates =
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (name, ols) ->
           let estimate =
             match Analyze.OLS.estimates ols with
             | Some (x :: _) -> Some x
             | Some [] | None -> None
           in
           Stats.Table.add_row table
             [
               name;
               (match estimate with
               | Some x -> Printf.sprintf "%.0f" x
               | None -> "n/a");
             ];
           (name, estimate))
  in
  print_newline ();
  Stats.Table.print table;
  estimates

(* ------------------------------------------------------------------ *)
(* Machine-readable record of this run, for tracking the perf trajectory
   across PRs: BENCH_<iso-date>.json in the working directory. *)

let json_escape = Obs.Export.json_escape

let write_bench_json ~experiments ~micro ~total_wall =
  (* empty series when no table forced the sweep (--micro-only) *)
  let { Exper.Experiments.load_rows; e17_rows } =
    if Lazy.is_val sweep then Lazy.force sweep
    else { load_rows = []; e17_rows = [] }
  in
  let now = Unix.gettimeofday () in
  let tm = Unix.gmtime now in
  let date =
    Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
      tm.Unix.tm_mday
  in
  let file = Printf.sprintf "BENCH_%s.json" date in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"timestamp\": \"%sT%02d:%02d:%02dZ\",\n" date
       tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec);
  Buffer.add_string buf (Printf.sprintf "  \"quick\": %b,\n" quick);
  Buffer.add_string buf (Printf.sprintf "  \"jobs\": %d,\n" (Parallel.jobs ()));
  Buffer.add_string buf
    (Printf.sprintf "  \"recommended_domains\": %d,\n"
       (Domain.recommended_domain_count ()));
  Buffer.add_string buf
    (Printf.sprintf "  \"total_wall_s\": %.3f,\n" total_wall);
  (* One array per section, one object per line. *)
  let section ?(last = false) name objects =
    Buffer.add_string buf
      (Printf.sprintf "  \"%s\": [%s%s%s" name
         (String.concat "," (List.map (( ^ ) "\n    ") objects))
         (if objects = [] then "]" else "\n  ]")
         (if last then "\n" else ",\n"))
  in
  let module E = Exper.Experiments in
  let fields fmt kvs =
    String.concat ", "
      (List.map
         (fun (key, v) -> Printf.sprintf "\"%s\": %s" (json_escape key) (fmt v))
         kvs)
  in
  section "experiments"
    (List.map
       (fun (id, wall) ->
         Printf.sprintf "{ \"id\": \"%s\", \"wall_s\": %.3f }"
           (json_escape id) wall)
       experiments);
  section "micro"
    (List.map
       (fun (name, estimate) ->
         Printf.sprintf "{ \"name\": \"%s\", \"ns_per_op\": %s }"
           (json_escape name)
           (match estimate with
           | Some x -> Printf.sprintf "%.1f" x
           | None -> "null"))
       micro);
  (* One load row feeds both E15's and E16's sections; each repeats the
     cell's shared columns. *)
  let cell (r : E.load_row) =
    Printf.sprintf
      "{ \"protocol\": \"%s\", \"batch\": %d, \"committed\": %d, \"tps\": \
       %.1f, \"p50_ms\": %.3f, \"p95_ms\": %.3f, "
      (json_escape r.E.load_protocol)
      r.E.load_batch r.E.load_committed r.E.load_tps r.E.load_p50_ms
      r.E.load_p95_ms
  in
  section "e15_batching"
    (List.map
       (fun (r : E.load_row) ->
         Printf.sprintf "%s\"order_per_commit\": %.4f, \"contract_ok\": %b }"
           (cell r) r.E.load_order_per_commit r.E.load_contract_ok)
       load_rows);
  section "e16_saturation"
    (List.map
       (fun (r : E.load_row) ->
         Printf.sprintf "%s\"window_means\": { %s } }" (cell r)
           (fields (Printf.sprintf "%.3f") r.E.load_means))
       load_rows);
  section "e16_knees"
    (List.map
       (fun (k : E.e16_knee) ->
         Printf.sprintf
           "{ \"protocol\": \"%s\", \"batch\": %d, \"resource\": \"%s\", \
            \"ratio\": %.3f }"
           (json_escape k.E.e16k_protocol)
           k.E.e16k_batch
           (json_escape k.E.e16k_resource)
           k.E.e16k_ratio)
       (E.e16_knees load_rows));
  section ~last:true "e17_critpath"
    (List.map
       (fun (r : E.e17_row) ->
         Printf.sprintf
           "{ \"protocol\": \"%s\", \"mode\": \"%s\", \"batch\": %d, \
            \"txns\": %d, \"p50_ms\": %.3f, \"dominant\": \"%s\", \
            \"max_residual_us\": %d, \"rounds\": %d, \"analytic_rounds\": \
            %d, \"shares\": { %s } }"
           (json_escape r.E.e17_protocol)
           (json_escape r.E.e17_mode)
           r.E.e17_batch r.E.e17_txns r.E.e17_p50_ms
           (json_escape r.E.e17_dominant)
           r.E.e17_max_residual_us r.E.e17_rounds r.E.e17_analytic_rounds
           (fields (Printf.sprintf "%.4f") r.E.e17_shares))
       e17_rows);
  Buffer.add_string buf "}\n";
  let oc = open_out file in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "\nwrote %s\n" file

(* ------------------------------------------------------------------ *)
(* --gate-obs: CI overhead gate on disabled-mode instrumentation — the span
   recorder, the sampler AND the audit log, which follows the same
   disabled-singleton discipline. A wall clock over a big loop (not
   Bechamel: the gate needs a stable pass/fail, not an estimate) with a
   bound loose enough for CI noise and tight enough to catch an accidental
   allocation or table lookup on the disabled path. *)

let run_gate_obs () =
  let obs = Obs.Recorder.none in
  let audit = Audit.Log.none in
  let sampler = Obs.Sampler.none in
  (* Pre-built so the loop measures the disabled calls themselves, not the
     construction of their arguments. *)
  let probe_labels = [ ("site", "0") ] in
  let probe = fun () -> 0.0 in
  let iters = 5_000_000 in
  for i = 1 to 100_000 do
    (* warm-up *)
    Obs.Recorder.submit obs ~at:(Sim.Time.of_us i) ~site:0 ~origin:0 ~local:i
  done;
  let t0 = Unix.gettimeofday () in
  for i = 1 to iters do
    Obs.Recorder.submit obs ~at:(Sim.Time.of_us i) ~site:0 ~origin:0 ~local:i;
    Audit.Log.send audit ~at:(Sim.Time.of_us i) ~origin:0 ~cls:Audit.Event.C
      ~seq:i ~txn:None ~vc:None;
    Audit.Log.deliver audit ~at:(Sim.Time.of_us i) ~site:0 ~origin:0
      ~cls:Audit.Event.C ~seq:i ~vc:None ~global_seq:None ~flush:false;
    Obs.Sampler.register sampler ~name:"gate" ~labels:probe_labels probe;
    Obs.Sampler.tick sampler ~at:(Sim.Time.of_us i)
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let calls = 5 * iters in
  let ns = wall *. 1e9 /. float_of_int calls in
  let bound = 50.0 in
  Printf.printf
    "obs+audit+sampler disabled-mode overhead: %.2f ns/call (%d calls)\n" ns
    calls;
  if ns > bound then begin
    Printf.printf "GATE FAIL: over the %.0f ns/call bound\n" bound;
    exit 1
  end;
  Printf.printf "GATE OK: under the %.0f ns/call bound\n" bound

let () =
  if gate_obs then begin
    run_gate_obs ();
    exit 0
  end;
  Printf.printf
    "bcastdb benchmark harness -- reproduces the evaluation of\n\
     \"Using Broadcast Primitives in Replicated Databases\" (ICDCS 1998).\n\
     Mode: %s   jobs: %d (BCASTDB_JOBS to override)\n"
    (if quick then "quick" else "full")
    (Parallel.jobs ());
  let t0 = Unix.gettimeofday () in
  let experiments = if micro_only then [] else print_tables () in
  if Lazy.is_val sweep then
    write_e16_series (Lazy.force sweep).Exper.Experiments.load_rows;
  let micro = if tables_only then [] else run_micro () in
  let total_wall = Unix.gettimeofday () -. t0 in
  if not micro_only then begin
    Printf.printf "\nPer-experiment wall-clock (s):\n";
    List.iter
      (fun (id, wall) -> Printf.printf "  %-4s %8.3f\n" id wall)
      experiments;
    Printf.printf "  %-4s %8.3f\n" "all" total_wall
  end;
  if not no_json then write_bench_json ~experiments ~micro ~total_wall
