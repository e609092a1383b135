(* The two kinds of run. End-to-end: tracing off, every episode verified,
   then re-simulated for steady wall-clock figures. Per-layer: an untraced
   pass for counter deltas and split verification, a traced pass (spans,
   audit, sampler) for critical paths and queue depths, then the layer
   replays. *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* Human-readable lines, then the JSON result as the last line. *)
let emit ~correct ~attempted ~failed metrics =
  List.iter
    (fun x -> Printf.printf "  %-34s %18.6f %s\n" x.name x.value x.unit_)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name x.value
             x.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* The benchmark's own spans around its calls into each layer: wall time
   and call count per name, printed when the run ends. *)
let spans : (string, float * int) Hashtbl.t = Hashtbl.create 16
let span_order = ref []

let span name f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  let dt = Unix.gettimeofday () -. t0 in
  (match Hashtbl.find_opt spans name with
  | Some (total, calls) -> Hashtbl.replace spans name (total +. dt, calls + 1)
  | None ->
    span_order := name :: !span_order;
    Hashtbl.replace spans name (dt, 1));
  (v, dt)

let print_spans () =
  print_endline "benchmark spans (wall s, calls):";
  List.iter
    (fun name ->
      let total, calls = Hashtbl.find spans name in
      Printf.printf "  %-28s %10.4f %6d\n" name total calls)
    (List.rev !span_order)

let failures = ref []
let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let median = Replay.median

let episode_seeds (w : Workloads.t) ~seed =
  List.init w.episodes (fun e -> (seed * 1000) + e)

let check_outcome (w : Workloads.t) (s : Drive.stats) =
  if s.commits = 0 then fail "no update transaction committed in the window";
  if w.all_decide && s.undecided > 0 then
    fail "%d transactions undecided after the drain" s.undecided

let print_outcomes (w : Workloads.t) (s : Drive.stats) =
  Printf.printf
    "%s: %.3fs simulated window, %d submitted, %d decided, %d update + %d \
     read-only commits, %d undecided after the drain\n"
    w.name s.window_s s.submitted s.decided s.commits s.ro_commits s.undecided;
  Printf.printf "  update latency: n=%d p50=%.3fms p99=%.3fms\n"
    (Array.length s.upd_ms)
    (Drive.percentile s.upd_ms 0.5)
    (Drive.percentile s.upd_ms 0.99);
  if Array.length s.ro_ms > 0 then
    Printf.printf "  read-only latency: n=%d p50=%.3fms p99=%.3fms\n"
      (Array.length s.ro_ms)
      (Drive.percentile s.ro_ms 0.5)
      (Drive.percentile s.ro_ms 0.99);
  Printf.printf "  aborts in window:%s\n"
    (String.concat ""
       (List.mapi
          (fun i r -> Printf.sprintf " %s=%d" (Drive.reason_name r) s.aborts.(i))
          Drive.all_reasons))

let txns (s : Drive.stats) = s.commits + s.ro_commits

(* Host-speed yardstick. The host's speed on allocation-heavy code drifts
   by up to a third over minutes (shared caches and memory bandwidth), far
   more than any code change worth measuring; the simulator and this fixed
   computation, which uses no code of the repository, drift together. Wall
   times are reported scaled to a host on which the yardstick takes
   [yardstick_nominal_s]; the raw figures are printed alongside. *)
module IM = Map.Make (Int)

let yardstick_nominal_s = 0.0125
let yardsticks = ref []

let yardstick () =
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  let m = ref IM.empty and x = ref 12345 in
  for _ = 1 to 20_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    m := IM.add (!x land 0xFFFFF) [ !x; !x + 1 ] !m
  done;
  ignore (Sys.opaque_identity !m);
  let dt = Unix.gettimeofday () -. t0 in
  yardsticks := dt :: !yardsticks;
  Gc.compact ()

(* Factor turning a raw wall time into a reference-host one. *)
let host_scale () = yardstick_nominal_s /. Replay.median !yardsticks

let end_to_end ~spawned_at ~seed ~seconds (w : Workloads.t) =
  let seeds = episode_seeds w ~seed in
  let t_start = Unix.gettimeofday () in
  let verify seed (a : Drive.artifacts) =
    yardstick ();
    let report, dt =
      span "verify.check" (fun () ->
          Verify.Check.check_execution ~require_all_decided:w.all_decide
            ~deadlock_free:true ~history:a.history ~stores:a.stores ())
    in
    if not (Verify.Check.ok report) then
      fail "seed %d: %s" seed (Verify.Check.summary report);
    dt
  in
  (* Pass 1: simulate and verify every episode. *)
  let verify_totals = ref [] in
  let first, first_verify =
    List.split
      (List.map
         (fun seed ->
           let s, a = Drive.run ~spawned_at ~mode:Drive.Untraced ~seed w in
           (s, verify seed a))
         seeds)
  in
  verify_totals := [ List.fold_left ( +. ) 0.0 first_verify ];
  let pooled = Drive.combine first in
  check_outcome w pooled;
  (* Replay passes re-simulate the same seeds until [seconds] of
     measurement have passed (at least three): the simulated outcome must
     repeat exactly, and the wall-clock figures are their medians. Each
     episode starts from a compacted heap (after a yardstick), so garbage
     left by earlier work does not slow it down. While verification has
     used under a quarter of [seconds], a pass verifies its histories too,
     and [verify_s] is the median over verified passes. *)
  let rec passes acc k =
    if k >= 3 && Unix.gettimeofday () -. t_start >= float_of_int seconds then acc
    else begin
      let reverify =
        List.fold_left ( +. ) 0.0 !verify_totals < float_of_int seconds /. 4.0
      in
      let total = ref 0.0 in
      let again =
        List.map
          (fun seed ->
            yardstick ();
            let s, a = Drive.run ~mode:Drive.Untraced ~seed w in
            if reverify then total := !total +. verify seed a;
            s)
          seeds
      in
      if reverify then verify_totals := !total :: !verify_totals;
      List.iter2
        (fun a b ->
          if Drive.signature a <> Drive.signature b then
            fail "simulation is not deterministic for a fixed seed")
        first again;
      passes (Drive.combine again :: acc) (k + 1)
    end
  in
  let all = passes [] 0 in
  print_outcomes w pooled;
  let scale = host_scale () in
  let verify_s = median !verify_totals in
  let per_wall_s =
    median
      (List.map
         (fun (s : Drive.stats) -> float_of_int (txns s) /. s.wall_window_s)
         all)
  in
  Printf.printf
    "  %d passes over %d episode(s); raw wall: %.1f txn/s, verify %.3fs \
     (median of %d); yardstick median %.5fs (host scale %.4f)\n"
    (List.length all) (List.length seeds) per_wall_s verify_s
    (List.length !verify_totals) (Replay.median !yardsticks) scale;
  Printf.printf "  longest commit-free stretch of the window: %.3fms\n"
    pooled.max_gap_ms;
  let correct = !failures = [] in
  List.iter (Printf.printf "CHECK FAILED: %s\n") (List.rev !failures);
  emit ~correct ~attempted:pooled.submitted ~failed:pooled.undecided
    [
      m "commit_tps" "1/s" (float_of_int pooled.commits /. pooled.window_s);
      m "commit_p50_ms" "ms" (Drive.percentile pooled.upd_ms 0.5);
      m "commit_p99_ms" "ms" (Drive.percentile pooled.upd_ms 0.99);
      m "failed_ratio" "ratio" (ratio pooled.failed pooled.submitted);
      m "txn_per_wall_s" "1/s" (per_wall_s /. scale);
      m "verify_s" "s" (verify_s *. scale);
      m "setup_s" "s" ((pooled.first_submit_at -. spawned_at) *. scale);
      m "alloc_words_per_txn" "words"
        (median
           (List.map
              (fun (s : Drive.stats) -> s.minor_words /. float_of_int (txns s))
              all));
      m "peak_heap_mb" "MB"
        (float_of_int (pooled.top_heap_words * (Sys.word_size / 8))
        /. 1048576.0);
    ];
  correct

(* ------------------------------------------------------------------ *)
(* Per-layer run *)

(* Mean over the window of a probe, summed across its per-site series. *)
let windowed_mean (a : Drive.artifacts) probe =
  let cols =
    List.concat
      (List.mapi
         (fun i (name, _) -> if name = probe then [ i ] else [])
         (Obs.Sampler.probes a.sampler))
  in
  let rows =
    List.filter
      (fun (at, _) -> a.w_start <= at && at < a.w_end)
      (Obs.Sampler.samples a.sampler)
  in
  if rows = [] then 0.0
  else
    List.fold_left
      (fun acc (_, values) ->
        List.fold_left (fun acc i -> acc +. values.(i)) acc cols)
      0.0 rows
    /. float_of_int (List.length rows)

let crit_segs =
  Critpath.
    [ Local; Lock_wait; Batch_wait; Nic_serialize; Link_latency; Ordering_wait;
      Timer_wait ]

(* Sampler queue depths, as (metric key, probe). The NIC backlog probe
   reads microseconds of queued serialization; it is reported in queued
   datagrams (backlog / per-datagram cost), 0 with a free interface. *)
let queue_probes =
  [
    ("evq", "sim_events_pending");
    ("nic_queue", "net_tx_backlog_us");
    ("delay_depth", "bcast_delay_depth");
    ("order_backlog", "bcast_order_backlog");
    ("lock_waiters", "db_lock_waiters");
    ("outstanding", "proto_outstanding");
  ]

type traced = {
  paths : Critpath.path list;  (** update commits decided in the window *)
  max_residual_us : int;  (** worst residual over [paths] *)
  run_residual_us : int;
      (** worst over every committed transaction of the episode; cold-start
          transactions can carry one think time the walk cannot attribute
          (a peer's first send has no delivery as its cause) *)
  queue_means : (string * float) list;
  bcasts : int;  (** broadcasts tagged by window update commits *)
  order_wire : int;  (** sequencer order datagrams assigned in the window *)
  sends : int;  (** application broadcasts sent in the window *)
  t_stats : Drive.stats;
}

let traced_episode (w : Workloads.t) ~seed =
  let (s, a), _ = span "repdb.run traced" (fun () -> Drive.run ~mode:Drive.Traced ~seed w) in
  let report = Audit.Log.finalize a.audit in
  if not (Audit.Log.report_ok report) then
    fail "seed %d: audit %s" seed (Audit.Log.summary report);
  let events = Audit.Log.events a.audit in
  let paths, _ =
    span "critpath.explain" (fun () ->
        Critpath.explain ~spans:(Obs.Recorder.events a.recorder) ~audit:events)
  in
  let max_residual paths =
    List.fold_left (fun acc p -> max acc p.Critpath.p_residual_us) 0 paths
  in
  let win = Hashtbl.create 1024 in
  List.iter (fun id -> Hashtbl.replace win id ()) a.win_txns;
  let all_paths = paths in
  let paths =
    List.filter
      (fun p -> Hashtbl.mem win (p.Critpath.p_origin, p.Critpath.p_local))
      all_paths
  in
  let tx_us = Sim.Time.to_us w.config.Repdb.Config.tx_time in
  let queue_means =
    List.map
      (fun (key, probe) ->
        let v = windowed_mean a probe in
        if key <> "nic_queue" then (key, v)
        else (key, if tx_us = 0 then 0.0 else v /. float_of_int tx_us))
      queue_probes
  in
  let n = w.config.Repdb.Config.n_sites in
  let acc = Audit.Accounting.per_txn ~only:a.win_txns ~n events in
  let order_wire =
    Audit.Accounting.order_wire_msgs
      (List.filter
         (function
           | Audit.Event.Order_assign { at; _ } -> a.w_start <= at && at < a.w_end
           | _ -> false)
         events)
  in
  let sends =
    List.length
      (List.filter
         (function
           | Audit.Event.Send { at; _ } -> a.w_start <= at && at < a.w_end
           | _ -> false)
         events)
  in
  {
    paths;
    max_residual_us = max_residual paths;
    run_residual_us = max_residual all_paths;
    sends;
    queue_means;
    bcasts = List.fold_left (fun acc r -> acc + r.Audit.Accounting.a_msgs) 0 acc;
    order_wire;
    t_stats = s;
  }

let per_layer ~seed (w : Workloads.t) =
  let seeds = episode_seeds w ~seed in
  (* Untraced pass: window counter deltas and the verification split. *)
  let ser_s = ref 0.0 and conv_s = ref 0.0 in
  let untraced =
    List.map
      (fun seed ->
        let (s, a), _ =
          span "repdb.run" (fun () ->
              Drive.run ~time_submits:true ~mode:Drive.Untraced ~seed w)
        in
        let ser, dt = span "verify.serialization" (fun () -> Verify.Serialization.check a.history) in
        ser_s := !ser_s +. dt;
        let conv, dt = span "verify.convergence" (fun () -> Verify.Convergence.check a.stores) in
        conv_s := !conv_s +. dt;
        let h = a.history in
        if ser <> [] || conv <> []
           || not (Verify.Invariants.read_only_never_aborted h)
           || not (Verify.Invariants.no_deadlock_aborts h)
           || (w.all_decide && not (Verify.Invariants.all_decided h))
        then fail "seed %d: verification failed" seed;
        s)
      seeds
  in
  let u = Drive.combine untraced in
  check_outcome w u;
  let traced = List.map (fun seed -> traced_episode w ~seed) seeds in
  let t = Drive.combine (List.map (fun x -> x.t_stats) traced) in
  if Drive.outcome t <> Drive.outcome u then
    fail "tracing changed the simulated outcome";
  let paths = List.concat_map (fun x -> x.paths) traced in
  let max_residual =
    List.fold_left (fun acc x -> max acc x.max_residual_us) 0 traced
  in
  if max_residual >= 1 then fail "critical-path residual %dus" max_residual;
  let run_residual =
    List.fold_left (fun acc x -> max acc x.run_residual_us) 0 traced
  in
  let blame = Critpath.blame_table paths in
  let blame_of seg = List.find_opt (fun b -> b.Critpath.b_seg = seg) blame in
  let queue key =
    List.fold_left
      (fun acc x -> acc +. List.assoc key x.queue_means)
      0.0 traced
    /. float_of_int (List.length traced)
  in
  let per_txn v = v /. float_of_int (max 1 (txns u)) in
  let per_commit v = v /. float_of_int (max 1 u.commits) in
  (* Layer replays, on the first episode's inputs. *)
  let seed0 = List.hd seeds in
  let gen = Replay.txns w ~seed:seed0 ~count:20_000 in
  let rep name f = fst (span ("replay." ^ name) f) in
  let sim_ns =
    rep "sim" (fun () ->
        Replay.sim_ns_per_event ~seed:seed0
          ~depth:(int_of_float (Float.round (queue "evq"))))
  in
  let net_ns = rep "net" (fun () -> Replay.net_ns_per_datagram w ~seed:seed0) in
  let gap =
    let sends = List.fold_left (fun acc x -> acc + x.sends) 0 traced in
    Sim.Time.of_us
      (max 1
         (int_of_float
            (t.window_s *. 1e6
            *. float_of_int (List.length w.client_sites)
            /. float_of_int (max 1 sends))))
  in
  let bcast_ns =
    rep "bcast" (fun () -> Replay.bcast_ns_per_delivery w ~seed:seed0 ~gap)
  in
  let lock_ns = rep "db.lock" (fun () -> Replay.lock_ns_per_op w gen) in
  let apply_ns, read_ns = rep "db.store" (fun () -> Replay.store_ns gen) in
  let workload_ns = rep "workload" (fun () -> Replay.workload_ns_per_txn w ~seed:seed0) in
  print_outcomes w u;
  Printf.printf
    "  critical paths: %d window update commits, max residual %dus (whole \
     run, warm-up included: %dus)\n"
    (List.length paths) max_residual run_residual;
  List.iter
    (fun seg ->
      match blame_of seg with
      | Some b ->
        Printf.printf "    %-14s share=%.4f p50=%.3fms p99=%.3fms\n"
          (Critpath.seg_name seg) b.Critpath.b_share
          (float_of_int b.Critpath.b_p50_us /. 1000.0)
          (float_of_int b.Critpath.b_p99_us /. 1000.0)
      | None -> ())
    crit_segs;
  print_spans ();
  let correct = !failures = [] in
  List.iter (Printf.printf "CHECK FAILED: %s\n") (List.rev !failures);
  emit ~correct ~attempted:u.submitted ~failed:u.undecided
    ([
       m "sim.events_per_txn" "count" (per_txn (float_of_int u.events));
       m "net.datagrams_per_txn" "count" (per_txn (float_of_int u.datagrams));
       m "net.broadcasts_per_txn" "count" (per_txn (float_of_int u.broadcasts));
       m "gc.promoted_words_per_txn" "words" (per_txn u.promoted_words);
       m "repdb.submit_us" "us"
         (u.submit_ns /. 1000.0 /. float_of_int (max 1 u.submit_calls));
       m "repdb.commit_ratio" "ratio" (ratio (txns u) u.decided);
       m "repdb.unavail_ms" "ms" u.max_gap_ms;
     ]
    @ List.mapi
        (fun i r ->
          m ("repdb.abort." ^ Drive.reason_name r) "ratio"
            (ratio u.aborts.(i) u.decided))
        Drive.all_reasons
    @ [
        m "verify.serialization_s" "s" !ser_s;
        m "verify.convergence_s" "s" !conv_s;
        m "sim.ns_per_event" "ns" sim_ns;
        m "net.ns_per_datagram" "ns" net_ns;
        m "bcast.ns_per_delivery" "ns" bcast_ns;
        m "db.lock.ns_per_op" "ns" lock_ns;
        m "db.store.ns_per_apply" "ns" apply_ns;
        m "db.store.ns_per_read" "ns" read_ns;
        m "workload.ns_per_txn" "ns" workload_ns;
      ]
    @ List.map
        (fun seg ->
          m
            ("crit." ^ Critpath.seg_name seg ^ ".share")
            "ratio"
            (match blame_of seg with Some b -> b.Critpath.b_share | None -> 0.0))
        crit_segs
    @ List.map
        (fun (key, _) -> m ("sampler." ^ key ^ "_mean") "count" (queue key))
        queue_probes
    @ [
        m "audit.bcasts_per_txn" "count"
          (per_commit
             (float_of_int (List.fold_left (fun acc x -> acc + x.bcasts) 0 traced)));
        m "audit.order_msgs_per_commit" "count"
          (per_commit
             (float_of_int
                (List.fold_left (fun acc x -> acc + x.order_wire) 0 traced)));
        m "obs.trace_overhead_ratio" "ratio"
          (t.wall_window_s /. float_of_int (max 1 (txns t))
          /. (u.wall_window_s /. float_of_int (max 1 (txns u))));
      ]);
  correct
