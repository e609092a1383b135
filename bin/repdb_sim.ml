(* Command-line driver.

   repdb_sim run <protocol> [options]   — one simulation, full report
   repdb_sim exper [E1..E17] [--quick]  — regenerate evaluation tables
   repdb_sim fuzz [--seeds N] [options] — seeded chaos: random fault
                                          schedules, 1SR + convergence
                                          checking, failing-seed shrinking
   repdb_sim audit --trace FILE         — re-run the broadcast-contract
                                          monitors over a recorded stream
   repdb_sim explain --trace FILE       — per-transaction critical paths
                                          with latency blame attribution
   repdb_sim list                       — protocols and experiments *)

open Cmdliner

(* A usage error (a flag out of range, an unknown name, an unreadable input):
   one line on stderr, exit 2, before any work starts. *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 2)
    fmt

let write_text_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* Validate and write the lifecycle trace a traced run recorded; a
   structurally broken trace is a bug, not a report. When the run was
   audited, its lineage events ride along in the same .jsonl (Chrome trace
   output has no place for them). *)
let export_trace (r : Exper.Runner.result) path =
  let events = Obs.Recorder.events r.Exper.Runner.recorder in
  (match Obs.Export.validate events with
  | Ok () -> ()
  | Error e ->
    Printf.eprintf "trace: INVALID (%s)\n" e;
    exit 1);
  let extra =
    if Audit.Log.enabled r.Exper.Runner.audit then
      Audit.Log.export_lines r.Exper.Runner.audit
    else []
  in
  Obs.Export.write_file ~path ~extra events;
  Printf.printf "trace          : %d span events%s -> %s\n" (List.length events)
    (match extra with
    | [] -> ""
    | lines -> Printf.sprintf " + %d audit lines" (List.length lines))
    path

(* The run summary's drop line: zero on clean links, per-category counts
   under a loss model. *)
let print_drops (r : Exper.Runner.result) =
  let drops = r.Exper.Runner.drops_by_category in
  let total = List.fold_left (fun acc (_, k) -> acc + k) 0 drops in
  Printf.printf "drops          : %d%s\n" total
    (if drops = [] then ""
     else
       " ("
       ^ String.concat " "
           (List.map (fun (c, k) -> Printf.sprintf "%s=%d" c k) drops)
       ^ ")")

(* Metrics snapshot: the network drop counters (kept by Net_stats) and
   every telemetry probe exported twice — [probe_<name>_total] is the run
   total (gauges read now, delta probes the cumulative increase since
   registration) and [probe_<name>_last] the final sampling window only
   (delta probes report per-window increments; folding the two under one
   name silently mixed their units). *)
let export_metrics (r : Exper.Runner.result) path =
  let drops =
    List.map
      (fun (category, count) ->
        ( ("net_dropped_datagrams", [ ("category", category) ]),
          Obs.Export.Counter count ))
      r.Exper.Runner.drops_by_category
  in
  let probes suffix values =
    List.map
      (fun ((name, labels), v) ->
        (("probe_" ^ name ^ suffix, labels), Obs.Export.Gauge v))
      values
  in
  let sampler = r.Exper.Runner.sampler in
  write_text_file path
    (Obs.Export.metrics_json
       (drops
       @ probes "_total" (Obs.Sampler.final_values sampler)
       @ probes "_last" (Obs.Sampler.last_values sampler)));
  Printf.printf "metrics        : -> %s\n" path

(* Telemetry time series recorded by a sampled run (--sample-every /
   --series): JSONL by default, CSV when the path ends in .csv. *)
let export_series sampler path =
  Obs.Sampler.write_file sampler ~path;
  Printf.printf "series         : %d probes x %d samples -> %s\n"
    (List.length (Obs.Sampler.probes sampler))
    (List.length (Obs.Sampler.samples sampler))
    path

(* --sample-every/--series resolution, shared by run and fuzz --replay:
   an explicit cadence wins; otherwise asking for a series file (or a
   metrics snapshot, which reports the probes) samples at 1ms. *)
let resolve_sample_every ~sample_every_us ~series ~metrics =
  match sample_every_us with
  | Some us when us > 0 -> Some (Sim.Time.of_us us)
  | Some _ -> usage_error "--sample-every must be positive (microseconds)"
  | None ->
    if series <> None || metrics <> None then Some (Sim.Time.of_ms 1) else None

let trace_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "export the transaction lifecycle trace: .jsonl gets JSON Lines, \
           anything else Chrome trace-event JSON (open in Perfetto). \
           Implies span collection.")

let sample_every_us =
  Arg.(
    value
    & opt (some int) None
    & info [ "sample-every" ] ~docv:"USEC"
        ~doc:
          "sample every registered telemetry probe (queue depths, backlogs, \
           lock counts, allocation rate) each $(docv) microseconds of \
           simulated time; export with $(b,--series)")

let series_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "series" ] ~docv:"FILE"
        ~doc:
          "write the sampled telemetry time series: .csv gets CSV, anything \
           else JSON Lines (schema in docs/OBSERVABILITY.md). Implies \
           sampling at 1ms unless $(b,--sample-every) says otherwise.")

(* ------------------------------------------------------------------ *)
(* Shared --batch-* flags: frames of up to batch_msgs payloads, flushed
   after batch_delay microseconds. batch_msgs 0 (the default) disables
   batching entirely. *)

let batch_policy ~batch_msgs ~batch_delay_us =
  if batch_msgs = 0 then None
  else if batch_msgs < 0 || batch_delay_us < 0 then
    usage_error "--batch-msgs/--batch-delay must be non-negative"
  else
    Some
      {
        Broadcast.Endpoint.max_msgs = batch_msgs;
        max_delay = Sim.Time.of_us batch_delay_us;
      }

let batch_msgs =
  Cmdliner.Arg.(
    value & opt int 0
    & info [ "batch-msgs" ]
        ~doc:
          "broadcast batching: coalesce up to $(docv) outgoing broadcasts \
           into one wire frame (0 = unbatched dispatch)"
        ~docv:"N")

let batch_delay_us =
  Cmdliner.Arg.(
    value & opt int 1000
    & info [ "batch-delay" ]
        ~doc:"flush an open frame after $(docv) microseconds"
        ~docv:"USEC")

(* ------------------------------------------------------------------ *)
(* run *)

let run_cmd protocol n_sites txns mpl seed ro_fraction theta n_keys reads writes
    ack_delay_ms no_ack early batch flood loss_rate batch_msgs batch_delay_us
    verbose trace audit audit_report metrics sample_every_us series =
  if n_sites < 1 then usage_error "--sites must be at least 1";
  if n_sites > Net.Site_id.max_sites then
    usage_error "--sites must be at most %d" Net.Site_id.max_sites;
  if txns < 1 || mpl < 1 then usage_error "--txns/--mpl must be at least 1";
  if not (ro_fraction >= 0.0 && ro_fraction <= 1.0) then
    usage_error "--ro must be in [0, 1]";
  if n_keys < 1 then usage_error "--keys must be at least 1";
  if reads < 0 || writes < 0 then
    usage_error "--reads/--writes must be non-negative";
  if ack_delay_ms < 0 then usage_error "--ack-delay must be non-negative (ms)";
  if not (loss_rate >= 0.0 && loss_rate < 1.0) then
    usage_error "--loss must be in [0, 1)";
  match Repdb.Protocol.of_name protocol with
  | None ->
    usage_error "unknown protocol %S (try: baseline reliable causal atomic)"
      protocol
  | Some proto ->
    let profile =
      {
        Workload.default with
        Workload.n_keys;
        reads_per_txn = reads;
        writes_per_txn = writes;
        ro_fraction;
        zipf_theta = theta;
      }
    in
    let config =
      {
        (Repdb.Config.default ~n_sites) with
        Repdb.Config.ack_delay =
          (if no_ack then None else Some (Sim.Time.of_ms ack_delay_ms));
        early_ww_abort = early;
        atomic_batch_writes = batch;
        flood;
        batch = batch_policy ~batch_msgs ~batch_delay_us;
        loss =
          (if loss_rate > 0.0 then
             Some { Net.Network.drop_probability = loss_rate; rto = Sim.Time.of_ms 20 }
           else None);
      }
    in
    let spec =
      Exper.Runner.spec ~config ~profile ~txns_per_site:txns ~mpl ~seed ~n_sites
        ~collect_spans:(trace <> None)
        ~collect_audit:(audit || audit_report <> None)
        ?sample_every:(resolve_sample_every ~sample_every_us ~series ~metrics)
        proto
    in
    let r = Exper.Runner.run spec in
    Printf.printf "protocol       : %s\n" r.Exper.Runner.protocol_name;
    Printf.printf "sites          : %d   txns/site: %d   mpl: %d   seed: %d\n"
      n_sites txns mpl seed;
    Printf.printf "committed      : %d\n" r.Exper.Runner.committed;
    Printf.printf "aborted        : %d (%.1f%%)\n" r.Exper.Runner.aborted
      (100.0 *. Exper.Runner.abort_rate r);
    Printf.printf "undecided      : %d\n" r.Exper.Runner.undecided;
    List.iter
      (fun (reason, count) ->
        Format.printf "  %a: %d@."
          Verify.History.pp_outcome (Verify.History.Aborted reason) count)
      r.Exper.Runner.aborts_by_reason;
    Printf.printf "throughput     : %.1f txn/s\n" r.Exper.Runner.throughput_tps;
    Format.printf "update latency : %a@." Stats.Summary.pp r.Exper.Runner.latency_ms;
    Format.printf "ro latency     : %a@." Stats.Summary.pp r.Exper.Runner.ro_latency_ms;
    Printf.printf "datagrams      : %d   broadcasts: %d\n" r.Exper.Runner.datagrams
      r.Exper.Runner.broadcasts;
    if verbose then
      List.iter
        (fun (cat, count) -> Printf.printf "  %-10s %d\n" cat count)
        r.Exper.Runner.per_category;
    print_drops r;
    Printf.printf "deadlocks      : %d\n" r.Exper.Runner.deadlocks;
    Option.iter (export_trace r) trace;
    Option.iter (export_metrics r) metrics;
    Option.iter (export_series r.Exper.Runner.sampler) series;
    let audit_ok =
      if not (Audit.Log.enabled r.Exper.Runner.audit) then true
      else begin
        let report = Audit.Log.finalize r.Exper.Runner.audit in
        Printf.printf "audit          : %s\n" (Audit.Log.summary report);
        if not (Audit.Log.report_ok report) then
          Format.printf "%a@." Audit.Log.pp_report report;
        Option.iter
          (fun path ->
            write_text_file path (Audit.Log.report_to_json report);
            Printf.printf "audit report   : -> %s\n" path)
          audit_report;
        Audit.Log.report_ok report
      end
    in
    let ser = Exper.Runner.one_copy_serializable r in
    let conv = Exper.Runner.converged r in
    Printf.printf "1-copy serializable: %b\nreplicas converged : %b\n" ser conv;
    if not (ser && conv && audit_ok) then exit 1

let protocol =
  Arg.(
    value & pos 0 string "atomic"
    & info [] ~docv:"PROTOCOL" ~doc:"baseline | reliable | causal | atomic")

let n_sites =
  Arg.(value & opt int 5 & info [ "sites"; "n" ] ~doc:"number of replica sites")

let txns = Arg.(value & opt int 200 & info [ "txns" ] ~doc:"transactions per site")
let mpl = Arg.(value & opt int 2 & info [ "mpl" ] ~doc:"clients per site")
let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"simulation seed")

let ro_fraction =
  Arg.(value & opt float 0.2 & info [ "ro" ] ~doc:"read-only fraction")

let theta = Arg.(value & opt float 0.0 & info [ "theta" ] ~doc:"zipf skew")
let n_keys = Arg.(value & opt int 1000 & info [ "keys" ] ~doc:"database size")
let reads = Arg.(value & opt int 3 & info [ "reads" ] ~doc:"reads per txn")
let writes = Arg.(value & opt int 3 & info [ "writes" ] ~doc:"writes per txn")

let ack_delay_ms =
  Arg.(value & opt int 10 & info [ "ack-delay" ] ~doc:"causal idle-ack delay, ms")

let no_ack =
  Arg.(value & flag & info [ "no-ack" ] ~doc:"causal: pure implicit acks")

let early =
  Arg.(value & flag & info [ "early-abort" ] ~doc:"causal: early concurrent-write abort")

let batch =
  Arg.(value & flag & info [ "batch-writes" ] ~doc:"atomic: write set inside the commit request")

let flood =
  Arg.(value & flag & info [ "flood" ] ~doc:"gossip-relay reliable broadcast")

let loss_rate =
  Arg.(value & opt float 0.0 & info [ "loss" ] ~doc:"datagram loss probability (ARQ retransmits)")

let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"per-category message counts")

let audit_flag =
  Arg.(
    value & flag
    & info [ "audit" ]
        ~doc:
          "record the message-lineage audit log and check the broadcast \
           contracts (integrity, reliable agreement, causal order, \
           total-order prefix consistency) online; exit 1 on any violation")

let audit_report_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "audit-report" ] ~docv:"FILE"
        ~doc:
          "write the audit verdict as JSON (violations carry their minimal \
           causal slices). Implies $(b,--audit).")

let metrics_file =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "write the run's metrics as JSON: the network drop counters and \
           every telemetry probe's run total and last sampled value. \
           Implies sampling at 1ms unless $(b,--sample-every) says \
           otherwise.")

let run_term =
  Term.(
    const run_cmd $ protocol $ n_sites $ txns $ mpl $ seed $ ro_fraction
    $ theta $ n_keys $ reads $ writes $ ack_delay_ms $ no_ack $ early $ batch
    $ flood $ loss_rate $ batch_msgs $ batch_delay_us $ verbose $ trace_file
    $ audit_flag $ audit_report_file $ metrics_file $ sample_every_us
    $ series_file)

(* ------------------------------------------------------------------ *)
(* exper *)

(* Simulation runs execute on the Parallel domain pool; exper's and fuzz's
   --jobs pins its size for this invocation (same knob as BCASTDB_JOBS). *)
let set_jobs = function
  | None -> ()
  | Some n when n < 1 || n > Parallel.max_jobs ->
    usage_error "--jobs must be in [1, %d]" Parallel.max_jobs
  | Some _ as jobs -> Parallel.set_jobs jobs

let exper_cmd which quick markdown jobs =
  set_jobs jobs;
  let experiments = Exper.Experiments.registry ~quick () in
  let selected =
    match which with
    | [] -> experiments
    | ids ->
      List.filter_map
        (fun id ->
          let id = String.uppercase_ascii id in
          match List.assoc_opt id experiments with
          | Some fn -> Some (id, fn)
          | None -> usage_error "unknown experiment %s (E1..E17)" id)
        ids
  in
  List.iter
    (fun (_, fn) ->
      let table = fn () in
      if markdown then print_string (Stats.Table.render_markdown table)
      else Stats.Table.print table;
      print_newline ())
    selected

let which =
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc:"E1..E17 (default: all)")

let quick = Arg.(value & flag & info [ "quick" ] ~doc:"smaller workloads")

let markdown =
  Arg.(value & flag & info [ "markdown" ] ~doc:"emit GitHub-flavoured markdown tables")

let exper_jobs =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ]
        ~doc:"domain pool size for simulation runs, 1 to 128 (default: \
              BCASTDB_JOBS or the recommended domain count; 1 = sequential)")

let exper_term = Term.(const exper_cmd $ which $ quick $ markdown $ exper_jobs)

(* ------------------------------------------------------------------ *)
(* fuzz *)

let fuzz_cmd n_seeds seed_start jobs txns episodes protocol_names planted_bug
    audit batch_msgs batch_delay_us replay trace sample_every_us series =
  if n_seeds < 0 then usage_error "--seeds must be non-negative";
  if txns < 1 then usage_error "--txns must be at least 1";
  set_jobs jobs;
  let protocols =
    match protocol_names with
    | [] -> Chaos.default_cfg.Chaos.protocols
    | names ->
      List.map
        (fun n ->
          match Repdb.Protocol.of_name n with
          | Some p -> p
          | None -> usage_error "unknown protocol %S" n)
        names
  in
  let cfg =
    {
      Chaos.default_cfg with
      Chaos.protocols;
      txns_per_site = txns;
      max_episodes = episodes;
      planted_bug;
      audit;
      batch = batch_policy ~batch_msgs ~batch_delay_us;
    }
  in
  match replay with
  | Some line -> (
    match Chaos.case_of_repro line with
    | Error e -> usage_error "bad repro line: %s" e
    | Ok case ->
      let spec =
        {
          (Chaos.spec_of_case cfg case) with
          Exper.Runner.collect_spans = trace <> None;
          sample_every =
            resolve_sample_every ~sample_every_us ~series ~metrics:None;
        }
      in
      let result = Exper.Runner.run spec in
      let report = Exper.Runner.check_execution result in
      Format.printf "%s@.%a@." (Chaos.repro case) Verify.Check.pp report;
      let audit_ok =
        if not (Audit.Log.enabled result.Exper.Runner.audit) then true
        else begin
          let audit_report = Audit.Log.finalize result.Exper.Runner.audit in
          Format.printf "audit: %s@." (Audit.Log.summary audit_report);
          if not (Audit.Log.report_ok audit_report) then
            Format.printf "%a@." Audit.Log.pp_report audit_report;
          Audit.Log.report_ok audit_report
        end
      in
      Option.iter (export_trace result) trace;
      Option.iter (export_series result.Exper.Runner.sampler) series;
      (* On divergence, show how the write order of each disputed key
         differed between the two sites — the raw material for diagnosis. *)
      let history = result.Exper.Runner.history in
      let writers_of site key =
        List.filter_map
          (fun txn ->
            match Verify.History.find history txn with
            | Some rec_ when List.mem_assoc key rec_.Verify.History.writes ->
              Some
                (Printf.sprintf "%s->%d"
                   (Db.Txn_id.to_string txn)
                   (List.assoc key rec_.Verify.History.writes))
            | _ -> None)
          (Verify.History.apply_order history ~site)
      in
      List.iter
        (fun (d : Verify.Convergence.divergence) ->
          Format.printf "  key %d applies@." d.Verify.Convergence.key;
          List.iter
            (fun site ->
              Format.printf "    S%d: %s@." site
                (String.concat " "
                   (writers_of site d.Verify.Convergence.key)))
            [ d.Verify.Convergence.site_a; d.Verify.Convergence.site_b ])
        report.Verify.Check.divergences;
      if not (Verify.Check.ok report && audit_ok) then exit 1)
  | None ->
    if sample_every_us <> None || series <> None then
      Printf.eprintf
        "note: --sample-every/--series apply to --replay only (a sweep runs \
         many cases; replay the one you want to profile)\n";
    let seeds = List.init n_seeds (fun i -> seed_start + i) in
    let outcome = Chaos.fuzz cfg ~seeds in
    print_endline (Chaos.render outcome);
    if planted_bug then begin
      (* Self-test mode: the planted bug MUST be caught. *)
      if outcome.Chaos.failures = [] then begin
        print_endline "planted-bug self-test: NOT DETECTED (checker is blind)";
        exit 1
      end
      else print_endline "planted-bug self-test: detected and shrunk"
    end
    else if outcome.Chaos.failures <> [] then exit 1

let fuzz_seeds =
  Arg.(value & opt int 100 & info [ "seeds" ] ~doc:"number of seeds to fuzz")

let fuzz_seed_start =
  Arg.(value & opt int 0 & info [ "seed-start" ] ~doc:"first seed (seeds are consecutive)")

let fuzz_jobs =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ]
        ~doc:"domain pool size, 1 to 128 (default: BCASTDB_JOBS or \
              recommended; 1 = sequential). The report is byte-identical \
              whatever the value.")

let fuzz_txns =
  Arg.(
    value
    & opt int Chaos.default_cfg.Chaos.txns_per_site
    & info [ "txns" ] ~doc:"foreground transactions per site")

let fuzz_episodes =
  Arg.(
    value
    & opt int Chaos.default_cfg.Chaos.max_episodes
    & info [ "episodes" ] ~doc:"max fault episodes per schedule")

let fuzz_protocols =
  Arg.(
    value & opt_all string []
    & info [ "protocol"; "p" ]
        ~doc:"protocol to fuzz (repeatable; default: reliable, causal, atomic)")

let fuzz_planted =
  Arg.(
    value & flag
    & info [ "planted-bug" ]
        ~doc:"self-test: run the atomic protocol with a planted \
              premature-acknowledgment bug; exit 0 iff the harness catches \
              and shrinks it")

let fuzz_replay =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"REPRO"
        ~doc:"replay one reported case, e.g. 'proto=atomic seed=17 sites=5 \
              script=crash(3)@400000+300000'")

let fuzz_audit =
  Arg.(
    value & flag
    & info [ "audit" ]
        ~doc:
          "run the broadcast-contract monitors on every case; a monitor \
           violation fails (and shrinks) the case exactly like a \
           serializability violation")

let fuzz_term =
  Term.(
    const fuzz_cmd $ fuzz_seeds $ fuzz_seed_start $ fuzz_jobs $ fuzz_txns
    $ fuzz_episodes $ fuzz_protocols $ fuzz_planted $ fuzz_audit $ batch_msgs
    $ batch_delay_us $ fuzz_replay $ trace_file $ sample_every_us
    $ series_file)

(* ------------------------------------------------------------------ *)
(* Shared line reader for the offline trace commands. *)

let read_lines file =
  let ic = try open_in file with Sys_error e -> usage_error "%s" e in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

(* ------------------------------------------------------------------ *)
(* explain (offline critical-path extraction over a recorded trace) *)

let path_dominant (p : Critpath.path) =
  let totals = Hashtbl.create 8 in
  List.iter
    (fun (s : Critpath.segment) ->
      let d = s.Critpath.sg_to_us - s.Critpath.sg_from_us in
      let k = s.Critpath.sg_seg in
      Hashtbl.replace totals k
        (d + Option.value ~default:0 (Hashtbl.find_opt totals k)))
    p.Critpath.p_segments;
  List.fold_left
    (fun (bk, bv) seg ->
      match Hashtbl.find_opt totals seg with
      | Some v when v > bv -> (Critpath.seg_name seg, v)
      | _ -> (bk, bv))
    ("none", 0) Critpath.all_segs
  |> fst

let print_path (p : Critpath.path) =
  Printf.printf
    "T%d.%d  latency %.3fms  (submit %dus, decide %dus, rounds %d, hops %d, \
     residual %dus)\n"
    p.Critpath.p_origin p.Critpath.p_local
    (float_of_int (Critpath.latency_us p) /. 1000.0)
    p.Critpath.p_submit_us p.Critpath.p_decide_us p.Critpath.p_rounds
    p.Critpath.p_hops p.Critpath.p_residual_us;
  List.iter
    (fun (s : Critpath.segment) ->
      Printf.printf "  %9d .. %-9d %8dus  S%d  %-14s %s\n" s.Critpath.sg_from_us
        s.Critpath.sg_to_us
        (s.Critpath.sg_to_us - s.Critpath.sg_from_us)
        s.Critpath.sg_site
        (Critpath.seg_name s.Critpath.sg_seg)
        s.Critpath.sg_note)
    p.Critpath.p_segments

let explain_cmd file txn_id json_out flow_out top =
  match Critpath.of_trace_lines (read_lines file) with
  | Error e -> usage_error "%s: %s" file e
  | Ok (_n, spans, audit) ->
    let all_paths = Critpath.explain ~spans ~audit in
    if all_paths = [] then begin
      Printf.eprintf
        "%s: no committed transactions in the trace (record the run with \
         --trace FILE.jsonl --audit)\n"
        file;
      exit 1
    end;
    let paths =
      match txn_id with
      | None -> all_paths
      | Some id -> (
        let id =
          if String.length id > 0 && (id.[0] = 'T' || id.[0] = 't') then
            String.sub id 1 (String.length id - 1)
          else id
        in
        match String.split_on_char '.' id with
        | [ o; l ] -> (
          match (int_of_string_opt o, int_of_string_opt l) with
          | Some o, Some l -> (
            match
              List.filter
                (fun (p : Critpath.path) ->
                  p.Critpath.p_origin = o && p.Critpath.p_local = l)
                all_paths
            with
            | [] ->
              Printf.eprintf
                "transaction T%d.%d is not a committed transaction of %s\n" o l
                file;
              exit 1
            | ps -> ps)
          | _ -> usage_error "--txn expects ORIGIN.LOCAL, e.g. 2.17 or T2.17")
        | _ -> usage_error "--txn expects ORIGIN.LOCAL, e.g. 2.17 or T2.17")
    in
    let table =
      Stats.Table.create
        ~title:
          (Printf.sprintf
             "critical-path blame over %d committed transaction%s"
             (List.length paths)
             (if List.length paths = 1 then "" else "s"))
        ~columns:
          [ "segment"; "txns"; "total ms"; "mean ms"; "p50 ms"; "p95 ms";
            "p99 ms"; "share" ]
    in
    List.iter
      (fun (b : Critpath.blame) ->
        Stats.Table.add_row table
          [
            Critpath.seg_name b.Critpath.b_seg;
            Stats.Table.cell_int b.Critpath.b_txns;
            Stats.Table.cell_float
              (float_of_int b.Critpath.b_total_us /. 1000.0);
            Stats.Table.cell_float (b.Critpath.b_mean_us /. 1000.0);
            Stats.Table.cell_float (float_of_int b.Critpath.b_p50_us /. 1000.0);
            Stats.Table.cell_float (float_of_int b.Critpath.b_p95_us /. 1000.0);
            Stats.Table.cell_float (float_of_int b.Critpath.b_p99_us /. 1000.0);
            Stats.Table.cell_pct b.Critpath.b_share;
          ])
      (Critpath.blame_table paths);
    Stats.Table.print table;
    print_newline ();
    if txn_id <> None then List.iter print_path paths
    else begin
      Printf.printf "slowest transactions:\n";
      List.iter
        (fun (p : Critpath.path) ->
          Printf.printf "  T%d.%-4d %10.3fms  rounds %d  dominant %s\n"
            p.Critpath.p_origin p.Critpath.p_local
            (float_of_int (Critpath.latency_us p) /. 1000.0)
            p.Critpath.p_rounds (path_dominant p))
        (Critpath.top_slowest ~k:top paths)
    end;
    Option.iter
      (fun path ->
        write_text_file path (Critpath.to_json ~top paths);
        Printf.printf "critpath json  : -> %s\n" path)
      json_out;
    Option.iter
      (fun path ->
        let objects = List.concat_map Critpath.flow_objects paths in
        Obs.Export.write_file ~path ~objects spans;
        Printf.printf "flow trace     : %d flow events -> %s\n"
          (List.length objects) path)
      flow_out

let explain_trace_file =
  Arg.(
    required
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "a .jsonl trace recorded by $(b,run --trace FILE.jsonl --audit): \
           the profiler walks each committed transaction's critical path \
           backwards through the merged span + delivery streams")

let explain_txn =
  Arg.(
    value
    & opt (some string) None
    & info [ "txn" ] ~docv:"ID"
        ~doc:
          "show one transaction's full segment chain (ORIGIN.LOCAL, e.g. \
           2.17) instead of the slowest-transactions digest")

let explain_json_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "write the blame table and per-transaction segment rows as a JSON \
           document (stream critpath, schema 1 — validated by \
           scripts/check_trace.py)")

let explain_flow_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "flow" ] ~docv:"FILE"
        ~doc:
          "write a Chrome trace-event file (open in Perfetto) of the span \
           events plus one flow-arrow chain per critical path; use a .json \
           path — the JSONL form has no place for flow events")

let explain_top =
  Arg.(
    value & opt int 5
    & info [ "top" ] ~docv:"K"
        ~doc:
          "size of the slowest-transactions digest (and the per-transaction \
           row cap in $(b,--json) output)")

let explain_term =
  Term.(
    const explain_cmd $ explain_trace_file $ explain_txn $ explain_json_out
    $ explain_flow_out $ explain_top)

(* ------------------------------------------------------------------ *)
(* audit (offline replay of a recorded stream) *)

let audit_cmd file json_out =
  match Critpath.of_trace_lines (read_lines file) with
  | Error e -> usage_error "%s: %s" file e
  | Ok (n, _spans, events) ->
    let report = Audit.Log.replay ~n events in
    Format.printf "%a@." Audit.Log.pp_report report;
    Option.iter
      (fun path ->
        write_text_file path (Audit.Log.report_to_json report);
        Printf.printf "audit report   : -> %s\n" path)
      json_out;
    if not (Audit.Log.report_ok report) then exit 1

let audit_trace_file =
  Arg.(
    required
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "a .jsonl trace recorded by $(b,run --audit --trace FILE) (or any \
           file of audit JSON lines): the monitors re-run offline over the \
           recorded stream")

let audit_json_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"also write the verdict as JSON")

let audit_term = Term.(const audit_cmd $ audit_trace_file $ audit_json_out)

(* ------------------------------------------------------------------ *)
(* list *)

let list_cmd () =
  print_endline "protocols  : baseline reliable causal atomic";
  print_endline "experiments:";
  List.iter
    (fun (id, _) -> Printf.printf "  %s\n" id)
    (Exper.Experiments.registry ())

(* ------------------------------------------------------------------ *)

let cmd =
  let doc =
    "replicated-database simulation: broadcast-based replica control protocols"
  in
  Cmd.group
    (Cmd.info "repdb_sim" ~doc)
    ~default:run_term
    [
      Cmd.v (Cmd.info "run" ~doc:"run one protocol under one workload") run_term;
      Cmd.v
        (Cmd.info "exper" ~doc:"regenerate evaluation tables (see EXPERIMENTS.md)")
        exper_term;
      Cmd.v
        (Cmd.info "fuzz"
           ~doc:
             "seeded chaos: randomized fault schedules, one-copy \
              serializability + convergence checking, failing-seed shrinking")
        fuzz_term;
      Cmd.v
        (Cmd.info "audit"
           ~doc:
             "re-run the broadcast-contract monitors over a recorded audit \
              stream")
        audit_term;
      Cmd.v
        (Cmd.info "explain"
           ~doc:
             "extract each committed transaction's critical path from a \
              recorded trace and attribute its latency, segment by segment")
        explain_term;
      Cmd.v (Cmd.info "list" ~doc:"list protocols and experiments")
        Term.(const list_cmd $ const ());
    ]

let () = exit (Cmd.eval cmd)
