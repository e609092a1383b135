module T = Stats.Table
module R = Runner

let protocols = Repdb.Protocol.all
let broadcast_protocols = Repdb.Protocol.broadcast_based
let name = Repdb.Protocol.name

(* Every experiment below follows the same three-phase shape: build the
   full list of simulation specs up front, run them on the domain pool
   (each [Runner.run] is a pure function of its spec: own engine, own RNG
   stream, own history), then fold the results into the table sequentially
   so row order — and therefore the rendered bytes — is independent of the
   pool size. *)
let runs specs = Parallel.map specs ~f:R.run

(* Wide key space, no read-only transactions: contention-free measurement
   of the protocols' fixed costs. *)
let costs_profile =
  {
    Workload.default with
    Workload.n_keys = 20_000;
    reads_per_txn = 2;
    writes_per_txn = 4;
    ro_fraction = 0.0;
  }

(* Datagrams attributable to transaction processing: everything except the
   membership layer's heartbeats and join/sync traffic. *)
let txn_datagrams result =
  List.fold_left
    (fun acc (category, count) ->
      match category with
      | "hb" | "join" | "sync" -> acc
      | _ -> acc + count)
    0 result.R.per_category

(* ------------------------------------------------------------------ *)
(* E1: message complexity *)

let analytic_datagrams proto ~n ~w =
  (* Point-to-point datagram counts per committed update transaction; the
     simulator's physical broadcast fans one operation out to all n sites
     (self-delivery included). *)
  match proto with
  | Repdb.Protocol.Baseline ->
    (* w writes + w acks + commit request, all to n-1 peers; n votes each
       to n-1 peers *)
    ((2 * w) + 1) * (n - 1) + (n * (n - 1))
  | Repdb.Protocol.Reliable ->
    (* w writes + 1 commit request + n votes, each an n-receiver broadcast *)
    (w + 1 + n) * n
  | Repdb.Protocol.Causal ->
    (* w writes + 1 commit request; acknowledgments are implicit (idle
       acks are timing-dependent extras, visible in the measured column) *)
    (w + 1) * n
  | Repdb.Protocol.Atomic ->
    (* w writes + 1 commit request, plus the sequencer's ordering message
       to n-1 peers *)
    ((w + 1) * n) + (n - 1)

let e1_messages ?(quick = false) () =
  let table =
    T.create ~title:"E1 (Table 1): messages per committed update transaction"
      ~columns:
        [ "protocol"; "sites"; "bcast ops/txn"; "datagrams/txn"; "analytic";
          "ack+vote datagrams/txn" ]
  in
  let txns = if quick then 60 else 300 in
  let cells =
    List.concat_map
      (fun n -> List.map (fun proto -> (n, proto)) protocols)
      (if quick then [ 5 ] else [ 3; 5; 7; 9 ])
  in
  let results =
    runs
      (List.map
         (fun (n, proto) ->
           R.spec ~n_sites:n ~profile:costs_profile ~txns_per_site:txns ~mpl:1
             ~seed:42 proto)
         cells)
  in
  List.iter2
    (fun (n, proto) r ->
      let committed = float_of_int r.R.committed in
      let acks =
        List.fold_left
          (fun acc (c, k) ->
            if c = "ack" || c = "vote" || c = "nack" then acc + k else acc)
          0 r.R.per_category
      in
      T.add_row table
        [
          name proto;
          T.cell_int n;
          T.cell_float (float_of_int r.R.broadcasts /. committed);
          T.cell_float (float_of_int (txn_datagrams r) /. committed);
          T.cell_int
            (analytic_datagrams proto ~n
               ~w:costs_profile.Workload.writes_per_txn);
          T.cell_float (float_of_int acks /. committed);
        ])
    cells results;
  table

(* ------------------------------------------------------------------ *)
(* E2: latency vs sites *)

let e2_latency_sites ?(quick = false) () =
  let table =
    T.create ~title:"E2 (Figure 2): commit latency vs number of sites"
      ~columns:[ "protocol"; "sites"; "mean"; "p50"; "p95"; "p99"; "analytic" ]
  in
  let txns = if quick then 60 else 250 in
  let cells =
    List.concat_map
      (fun n -> List.map (fun proto -> (n, proto)) protocols)
      (if quick then [ 5 ] else [ 3; 5; 7; 9; 11 ])
  in
  let results =
    runs
      (List.map
         (fun (n, proto) ->
           R.spec ~n_sites:n ~profile:costs_profile ~txns_per_site:txns ~mpl:2
             ~seed:7 proto)
         cells)
  in
  List.iter2
    (fun (n, proto) r ->
      let l = r.R.latency_ms in
      T.add_row table
        [
          name proto;
          T.cell_int n;
          T.cell_ms (Stats.Summary.mean l);
          T.cell_ms (Stats.Summary.median l);
          T.cell_ms (Stats.Summary.percentile l 0.95);
          T.cell_ms (Stats.Summary.percentile l 0.99);
          T.cell_ms
            (Analytic.commit_latency_ms proto ~n ~latency:Net.Latency.lan
               ~idle_ack_ms:10.0);
        ])
    cells results;
  table

(* ------------------------------------------------------------------ *)
(* E3: implicit acknowledgments vs background traffic *)

let e3_implicit_ack ?(quick = false) () =
  let table =
    T.create
      ~title:
        "E3 (Figure 3): causal protocol, commit latency vs background traffic"
      ~columns:
        [ "variant"; "background txn/s/site"; "mean"; "p95"; "undecided" ]
  in
  let txns = if quick then 30 else 150 in
  let variant ~ack_delay ~bg label =
    let config =
      { (Repdb.Config.default ~n_sites:5) with Repdb.Config.ack_delay } in
    ( (label, bg),
      R.spec ~n_sites:5 ~config ~profile:costs_profile ~txns_per_site:txns
        ~mpl:1 ~seed:11 ?background_rate:bg Repdb.Protocol.Causal )
  in
  let rates = if quick then [ Some 50.0 ] else [ Some 5.0; Some 20.0; Some 100.0; Some 500.0 ] in
  let cells =
    List.map (fun bg -> variant ~ack_delay:None ~bg "implicit only") rates
    @ [
        variant ~ack_delay:None ~bg:None "implicit only";
        variant ~ack_delay:(Some (Sim.Time.of_ms 10)) ~bg:None
          "with 10ms idle-ack";
        variant ~ack_delay:(Some (Sim.Time.of_ms 2)) ~bg:None
          "with 2ms idle-ack";
      ]
  in
  let results = runs (List.map snd cells) in
  List.iter2
    (fun ((label, bg), _) r ->
      T.add_row table
        [
          label;
          (match bg with Some b -> T.cell_float b | None -> "0");
          T.cell_ms (Stats.Summary.mean r.R.latency_ms);
          T.cell_ms (Stats.Summary.percentile r.R.latency_ms 0.95);
          T.cell_int r.R.undecided;
        ])
    cells results;
  table

(* ------------------------------------------------------------------ *)
(* E4: abort rate vs contention *)

let e4_aborts ?(quick = false) () =
  let table =
    T.create ~title:"E4 (Figure 4): abort rate vs access skew"
      ~columns:[ "protocol"; "zipf theta"; "abort rate"; "deadlocks" ]
  in
  let txns = if quick then 40 else 200 in
  let thetas = if quick then [ 0.9 ] else [ 0.0; 0.5; 0.8; 1.0; 1.2 ] in
  let contended theta =
    {
      Workload.default with
      Workload.n_keys = 200;
      reads_per_txn = 2;
      writes_per_txn = 3;
      ro_fraction = 0.0;
      zipf_theta = theta;
    }
  in
  let cells =
    List.concat_map
      (fun theta ->
        List.map
          (fun proto ->
            ( (name proto, theta),
              R.spec ~n_sites:5 ~profile:(contended theta) ~txns_per_site:txns
                ~mpl:3 ~seed:5 proto ))
          protocols
        (* the causal protocol's early concurrent-write abort, as a variant *)
        @ [
            (let config =
               { (Repdb.Config.default ~n_sites:5) with
                 Repdb.Config.early_ww_abort = true }
             in
             ( ("causal+early", theta),
               R.spec ~n_sites:5 ~config ~profile:(contended theta)
                 ~txns_per_site:txns ~mpl:3 ~seed:5 Repdb.Protocol.Causal ));
          ])
      thetas
  in
  let results = runs (List.map snd cells) in
  List.iter2
    (fun ((label, theta), _) r ->
      T.add_row table
        [
          label;
          T.cell_float ~decimals:1 theta;
          T.cell_pct (R.abort_rate r);
          T.cell_int r.R.deadlocks;
        ])
    cells results;
  table

(* ------------------------------------------------------------------ *)
(* E5: throughput vs multiprogramming level *)

let e5_throughput ?(quick = false) () =
  let table =
    T.create ~title:"E5 (Figure 5): throughput vs multiprogramming level"
      ~columns:[ "protocol"; "clients/site"; "committed txn/s"; "abort rate" ]
  in
  let txns = if quick then 60 else 250 in
  let mpls = if quick then [ 4 ] else [ 1; 2; 4; 8; 16 ] in
  let cells =
    List.concat_map
      (fun mpl -> List.map (fun proto -> (mpl, proto)) protocols)
      mpls
  in
  let results =
    runs
      (List.map
         (fun (mpl, proto) ->
           R.spec ~n_sites:5
             ~profile:{ costs_profile with Workload.n_keys = 2_000 }
             ~txns_per_site:txns ~mpl ~seed:3 proto)
         cells)
  in
  List.iter2
    (fun (mpl, proto) r ->
      T.add_row table
        [
          name proto;
          T.cell_int mpl;
          T.cell_float ~decimals:0 r.R.throughput_tps;
          T.cell_pct (R.abort_rate r);
        ])
    cells results;
  table

(* ------------------------------------------------------------------ *)
(* E6: deadlocks *)

let e6_deadlocks ?(quick = false) () =
  let table =
    T.create
      ~title:"E6 (Table 2): deadlock prevention under cross-conflict load"
      ~columns:
        [ "protocol"; "deadlock cycles"; "aborts"; "max latency"; "undecided" ]
  in
  let txns = if quick then 60 else 300 in
  let profile =
    {
      Workload.default with
      Workload.n_keys = 8;
      reads_per_txn = 2;
      writes_per_txn = 2;
      ro_fraction = 0.0;
    }
  in
  let results =
    runs
      (List.map
         (fun proto ->
           R.spec ~n_sites:4 ~profile ~txns_per_site:txns ~mpl:3 ~seed:23 proto)
         protocols)
  in
  List.iter2
    (fun proto r ->
      T.add_row table
        [
          name proto;
          T.cell_int r.R.deadlocks;
          T.cell_int r.R.aborted;
          T.cell_ms (Stats.Summary.max r.R.latency_ms);
          T.cell_int r.R.undecided;
        ])
    protocols results;
  table

(* ------------------------------------------------------------------ *)
(* E7: availability across a crash *)

let e7_failover ?(quick = false) () =
  let table =
    T.create
      ~title:
        "E7 (Figure 6): availability across a crash and rejoin (5 sites) - per-phase commits"
      ~columns:
        [ "protocol"; "phase"; "committed"; "mean latency"; "p95 latency" ]
  in
  let txns = if quick then 500 else 1600 in
  let crash_at = if quick then 0.3 else 1.0 in
  let rejoin_at = if quick then 0.8 else 2.5 in
  let results =
    runs
      (List.map
         (fun proto ->
           R.spec ~n_sites:5
             ~profile:{ costs_profile with Workload.n_keys = 5_000 }
             ~txns_per_site:txns ~mpl:2 ~seed:13
             ~events:
               [ (Sim.Time.of_sec crash_at, R.Crash 4);
                 (Sim.Time.of_sec rejoin_at, R.Recover 4) ]
             proto)
         broadcast_protocols)
  in
  List.iter2
    (fun proto r ->
      let phases =
        [ ("steady", 0.0, crash_at); ("post-crash", crash_at, rejoin_at);
          ("post-rejoin", rejoin_at, infinity) ]
      in
      List.iter
        (fun (label, lo, hi) ->
          let latencies =
            List.filter_map
              (fun (at, ms) -> if at >= lo && at < hi then Some ms else None)
              r.R.decision_series
          in
          let s = Stats.Summary.create () in
          List.iter (Stats.Summary.add s) latencies;
          T.add_row table
            [
              name proto;
              label;
              T.cell_int (Stats.Summary.count s);
              T.cell_ms (Stats.Summary.mean s);
              T.cell_ms (Stats.Summary.percentile s 0.95);
            ])
        phases)
    broadcast_protocols results;
  table

(* ------------------------------------------------------------------ *)
(* E8: read-only transactions *)

let e8_readonly ?(quick = false) () =
  let table =
    T.create ~title:"E8 (Table 3): read-only transactions (80% of the mix)"
      ~columns:
        [ "protocol"; "ro committed"; "ro aborted"; "ro mean latency";
          "update mean latency" ]
  in
  let txns = if quick then 60 else 300 in
  let profile =
    { Workload.default with Workload.n_keys = 500; ro_fraction = 0.8 }
  in
  let results =
    runs
      (List.map
         (fun proto ->
           R.spec ~n_sites:5 ~profile ~txns_per_site:txns ~mpl:2 ~seed:9 proto)
         protocols)
  in
  List.iter2
    (fun proto r ->
      let ro_aborts =
        List.length
          (List.filter
             (fun tr ->
               tr.Verify.History.read_only
               &&
               match tr.Verify.History.outcome with
               | Some (Verify.History.Aborted _) -> true
               | _ -> false)
             (Verify.History.txns r.R.history))
      in
      T.add_row table
        [
          name proto;
          T.cell_int (Stats.Summary.count r.R.ro_latency_ms);
          T.cell_int ro_aborts;
          T.cell_ms (Stats.Summary.mean r.R.ro_latency_ms);
          T.cell_ms (Stats.Summary.mean r.R.latency_ms);
        ])
    protocols results;
  table

(* ------------------------------------------------------------------ *)
(* E9: the primitives themselves *)

let measure_endpoint_primitive cls ~n ~count =
  let engine = Sim.Engine.create ~seed:17 () in
  let group =
    Broadcast.Endpoint.create_group engine ~n ~latency:Net.Latency.lan ()
  in
  let eps = Broadcast.Endpoint.endpoints group in
  let sends = Hashtbl.create 64 in
  let s = Stats.Summary.create () in
  Array.iter
    (fun ep ->
      Broadcast.Endpoint.set_deliver ep (fun d ->
          if
            not (Net.Site_id.equal (Broadcast.Endpoint.site ep)
                   d.Broadcast.Endpoint.id.Broadcast.Msg_id.origin)
          then begin
            match Hashtbl.find_opt sends d.Broadcast.Endpoint.payload with
            | Some sent_at ->
              Stats.Summary.add s
                (Sim.Time.to_ms (Sim.Time.diff (Sim.Engine.now engine) sent_at))
            | None -> ()
          end))
    eps;
  for i = 0 to count - 1 do
    let origin = i mod n in
    let payload = i in
    ignore
      (Sim.Engine.schedule engine ~delay:(Sim.Time.of_ms (2 * i)) (fun () ->
           Hashtbl.replace sends payload (Sim.Engine.now engine);
           ignore (Broadcast.Endpoint.broadcast eps.(origin) cls payload)))
  done;
  Sim.Engine.run_until engine (Sim.Time.of_sec (0.002 *. float_of_int count +. 2.0));
  let stats = Broadcast.Endpoint.stats group in
  let datagrams =
    List.fold_left
      (fun acc (c, k) -> if c = "hb" then acc else acc + k)
      0
      (Net.Net_stats.by_category stats)
  in
  (s, float_of_int datagrams /. float_of_int count)

let measure_lamport ~n ~count =
  let engine = Sim.Engine.create ~seed:17 () in
  let group = Broadcast.Total_lamport.create_group engine ~n ~latency:Net.Latency.lan () in
  let eps = Broadcast.Total_lamport.endpoints group in
  let sends = Hashtbl.create 64 in
  let s = Stats.Summary.create () in
  Array.iter
    (fun ep ->
      Broadcast.Total_lamport.set_deliver ep
        (fun ~origin ~global_seq:_ payload ->
          if not (Net.Site_id.equal (Broadcast.Total_lamport.site ep) origin) then begin
            match Hashtbl.find_opt sends payload with
            | Some sent_at ->
              Stats.Summary.add s
                (Sim.Time.to_ms (Sim.Time.diff (Sim.Engine.now engine) sent_at))
            | None -> ()
          end))
    eps;
  for i = 0 to count - 1 do
    let origin = i mod n in
    ignore
      (Sim.Engine.schedule engine ~delay:(Sim.Time.of_ms (2 * i)) (fun () ->
           Hashtbl.replace sends i (Sim.Engine.now engine);
           Broadcast.Total_lamport.broadcast eps.(origin) i))
  done;
  Sim.Engine.run_until engine (Sim.Time.of_sec (0.002 *. float_of_int count +. 2.0));
  let datagrams = Net.Net_stats.datagrams (Broadcast.Total_lamport.stats group) in
  (s, float_of_int datagrams /. float_of_int count)

let e9_primitives ?(quick = false) () =
  let table =
    T.create ~title:"E9 (Table 4): broadcast primitive costs (5 sites)"
      ~columns:
        [ "primitive"; "mean delivery"; "p95 delivery"; "datagrams/bcast" ]
  in
  let count = if quick then 50 else 400 in
  let n = 5 in
  (* Not [Runner.run] specs, but the same shape applies: each measurement
     owns its engine, so the four primitives run in parallel. *)
  let measures =
    [
      ("reliable", fun () -> measure_endpoint_primitive `Reliable ~n ~count);
      ("causal", fun () -> measure_endpoint_primitive `Causal ~n ~count);
      ( "total (sequencer)",
        fun () -> measure_endpoint_primitive `Total ~n ~count );
      ("total (lamport/ISIS)", fun () -> measure_lamport ~n ~count);
    ]
  in
  let results = Parallel.map measures ~f:(fun (_, measure) -> measure ()) in
  List.iter2
    (fun (label, _) (s, datagrams) ->
      T.add_row table
        [
          label;
          T.cell_ms (Stats.Summary.mean s);
          T.cell_ms (Stats.Summary.percentile s 0.95);
          T.cell_float datagrams;
        ])
    measures results;
  table

(* ------------------------------------------------------------------ *)
(* E10: streamed vs batched write dissemination (atomic protocol) *)

let e10_batched_writes ?(quick = false) () =
  let table =
    T.create
      ~title:
        "E10 (ablation): atomic protocol, streamed writes vs batched commit request"
      ~columns:
        [ "variant"; "contention"; "datagrams/txn"; "mean latency"; "abort rate" ]
  in
  let txns = if quick then 60 else 250 in
  let profiles =
    [ ("low", { costs_profile with Workload.n_keys = 20_000 });
      ("high",
       { costs_profile with Workload.n_keys = 150; writes_per_txn = 3 }) ]
  in
  let cells =
    List.concat_map
      (fun (contention, profile) ->
        List.map
          (fun (label, batch) -> (label, contention, profile, batch))
          [ ("streamed (paper sec.5)", false); ("batched (AAES97)", true) ])
      profiles
  in
  let results =
    runs
      (List.map
         (fun (_, _, profile, batch) ->
           let config =
             { (Repdb.Config.default ~n_sites:5) with
               Repdb.Config.atomic_batch_writes = batch }
           in
           R.spec ~n_sites:5 ~config ~profile ~txns_per_site:txns ~mpl:2
             ~seed:4 Repdb.Protocol.Atomic)
         cells)
  in
  List.iter2
    (fun (label, contention, _, _) r ->
      T.add_row table
        [
          label;
          contention;
          T.cell_float
            (float_of_int (txn_datagrams r) /. float_of_int r.R.committed);
          T.cell_ms (Stats.Summary.mean r.R.latency_ms);
          T.cell_pct (R.abort_rate r);
        ])
    cells results;
  table

(* ------------------------------------------------------------------ *)
(* E11: flooding (gossip relay) cost *)

let e11_flooding ?(quick = false) () =
  let table =
    T.create ~title:"E11 (ablation): gossip-relay flooding cost (5 sites)"
      ~columns:[ "protocol"; "flood"; "datagrams/txn"; "mean latency" ]
  in
  let txns = if quick then 40 else 150 in
  let cells =
    List.concat_map
      (fun proto -> List.map (fun flood -> (proto, flood)) [ false; true ])
      broadcast_protocols
  in
  let results =
    runs
      (List.map
         (fun (proto, flood) ->
           let config =
             { (Repdb.Config.default ~n_sites:5) with Repdb.Config.flood } in
           R.spec ~n_sites:5 ~config ~profile:costs_profile ~txns_per_site:txns
             ~mpl:1 ~seed:8 proto)
         cells)
  in
  List.iter2
    (fun (proto, flood) r ->
      T.add_row table
        [
          name proto;
          string_of_bool flood;
          T.cell_float
            (float_of_int (txn_datagrams r) /. float_of_int r.R.committed);
          T.cell_ms (Stats.Summary.mean r.R.latency_ms);
        ])
    cells results;
  table

(* ------------------------------------------------------------------ *)
(* E12: lossy links *)

let e12_lossy_links ?(quick = false) () =
  let table =
    T.create
      ~title:"E12 (ablation): datagram loss with ARQ retransmission (5 sites)"
      ~columns:
        [ "protocol"; "loss"; "mean latency"; "p95 latency"; "datagrams/txn" ]
  in
  let txns = if quick then 40 else 150 in
  let rates = if quick then [ 0.0; 0.05 ] else [ 0.0; 0.01; 0.05; 0.15 ] in
  let cells =
    List.concat_map
      (fun rate -> List.map (fun proto -> (rate, proto)) protocols)
      rates
  in
  let results =
    runs
      (List.map
         (fun (rate, proto) ->
           let loss =
             if rate = 0.0 then None
             else
               Some
                 { Net.Network.drop_probability = rate; rto = Sim.Time.of_ms 20 }
           in
           let config = { (Repdb.Config.default ~n_sites:5) with Repdb.Config.loss } in
           R.spec ~n_sites:5 ~config ~profile:costs_profile ~txns_per_site:txns
             ~mpl:1 ~seed:6 proto)
         cells)
  in
  List.iter2
    (fun (rate, proto) r ->
      T.add_row table
        [
          name proto;
          T.cell_pct rate;
          T.cell_ms (Stats.Summary.mean r.R.latency_ms);
          T.cell_ms (Stats.Summary.percentile r.R.latency_ms 0.95);
          T.cell_float
            (float_of_int (txn_datagrams r) /. float_of_int r.R.committed);
        ])
    cells results;
  table

(* ------------------------------------------------------------------ *)
(* E13: per-phase latency breakdown *)

let e13_phase_breakdown ?(quick = false) () =
  let table =
    T.create
      ~title:
        "E13: where commit latency goes — per-phase breakdown (origin-side \
         spans; decide->apply is the replication lag behind the client's ack)"
      ~columns:[ "protocol"; "phase"; "n"; "mean"; "p50"; "p95"; "p99" ]
  in
  let txns = if quick then 60 else 250 in
  let results =
    runs
      (List.map
         (fun proto ->
           R.spec ~n_sites:5 ~txns_per_site:txns ~mpl:2 ~seed:7
             ~collect_spans:true proto)
         protocols)
  in
  List.iter2
    (fun proto r ->
      let stats =
        Obs.Span_stats.of_events (Obs.Recorder.events r.R.recorder)
      in
      List.iter
        (fun (phase, s) ->
          T.add_row table
            [
              name proto;
              phase;
              T.cell_int (Stats.Summary.count s);
              T.cell_ms (Stats.Summary.mean s);
              T.cell_ms (Obs.Span_stats.percentile s 0.5);
              T.cell_ms (Obs.Span_stats.percentile s 0.95);
              T.cell_ms (Obs.Span_stats.percentile s 0.99);
            ])
        (Obs.Span_stats.named stats))
    protocols results;
  table

(* ------------------------------------------------------------------ *)
(* E14: audited message/round complexity *)

(* Closed-form per-transaction costs from the paper's protocol analyses,
   counted over broadcasts the transaction's lineage tags (so the causal
   protocol's implicit acknowledgments — unrelated traffic — are excluded,
   exactly as its analysis excludes them):
   - reliable: w writes + 1 commit request + one vote per site, two rounds
     (votes are sent on delivering the commit request);
   - causal:   w writes + 1 commit request, two rounds (the commit request
     waits for the writes to self-deliver), no ordering traffic;
   - atomic:   w writes + 1 commit request in a single round (all sent at
     submission), plus one sequencer assignment for the commit request. *)
let analytic_costs proto ~n ~w =
  match proto with
  | Repdb.Protocol.Reliable -> (w + 1 + n, 0, 2)
  | Repdb.Protocol.Causal -> (w + 1, 0, 2)
  | Repdb.Protocol.Atomic -> (w + 1, 1, 1)
  | Repdb.Protocol.Baseline ->
    invalid_arg "analytic_costs: baseline sends no broadcasts"

let e14_audit_complexity ?(quick = false) () =
  let table =
    T.create
      ~title:
        "E14: audited message/round complexity per update transaction \
         (lineage DAG measurement vs the analytical claims; 5 sites, w=4, \
         constant latency)"
      ~columns:
        [ "protocol"; "txns"; "msgs/txn"; "analytic"; "order/txn"; "analytic";
          "rounds"; "analytic"; "contract" ]
  in
  let n = 5 in
  let txns = if quick then 40 else 150 in
  (* Constant link latency: the message counts are latency-free, and round
     depth then cannot be skewed by a latency-tail triangle inequality
     violation (a vote overtaking the commit request it answers). *)
  let config =
    {
      (Repdb.Config.default ~n_sites:n) with
      Repdb.Config.latency = Net.Latency.Constant (Sim.Time.of_ms 1);
    }
  in
  let results =
    runs
      (List.map
         (fun proto ->
           R.spec ~n_sites:n ~config ~profile:costs_profile ~txns_per_site:txns
             ~mpl:1 ~seed:14 ~collect_audit:true proto)
         broadcast_protocols)
  in
  let cell_stats (s : Audit.Accounting.stats) =
    match Audit.Accounting.stats_exact s with
    | Some v -> T.cell_int v
    | None -> Printf.sprintf "%.2f [%d..%d]" s.Audit.Accounting.st_mean
                s.Audit.Accounting.st_min s.Audit.Accounting.st_max
  in
  List.iter2
    (fun proto r ->
      let w = costs_profile.Workload.writes_per_txn in
      let msgs, orders, rounds = analytic_costs proto ~n ~w in
      (* Committed transactions only: the closed forms are commit costs
         (a rare conflict under the wide key space adds nack/no-vote
         traffic tagged to the aborted transaction). *)
      let only =
        List.filter_map
          (fun (tr : Verify.History.txn_record) ->
            match tr.Verify.History.outcome with
            | Some Verify.History.Committed ->
              Some
                ( tr.Verify.History.txn.Db.Txn_id.origin,
                  tr.Verify.History.txn.Db.Txn_id.local )
            | _ -> None)
          (Verify.History.txns r.R.history)
      in
      let s =
        Audit.Accounting.summarize ~only ~n (Audit.Log.events r.R.audit)
      in
      let contract =
        let report = Audit.Log.finalize r.R.audit in
        if Audit.Log.report_ok report then "ok"
        else
          Printf.sprintf "%d violations"
            report.Audit.Log.r_violations_total
      in
      T.add_row table
        [
          name proto;
          T.cell_int s.Audit.Accounting.n_txns;
          cell_stats s.Audit.Accounting.msgs;
          T.cell_int msgs;
          cell_stats s.Audit.Accounting.order_msgs;
          T.cell_int orders;
          cell_stats s.Audit.Accounting.rounds;
          T.cell_int rounds;
          contract;
        ])
    broadcast_protocols results;
  table

(* ------------------------------------------------------------------ *)
(* E15: broadcast batching / group commit at saturation *)

type load_row = {
  load_protocol : string;
  load_batch : int;
  load_committed : int;
  load_tps : float;
  load_p50_ms : float;
  load_p95_ms : float;
  load_order_per_commit : float;
  load_contract_ok : bool;
  load_means : (string * float) list;
}

(* Saturation setup: a 200us NIC serialization cost makes the interface —
   not the lock manager — the bottleneck, which is exactly the resource
   frames amortize. The atomic protocol ships its write set inside the
   commit request (E10's batched-writes mode), so one transaction is one
   total-class broadcast and a 16-message frame is 16 commit requests
   sharing a single sequencer assignment datagram. Suspicion is relaxed to
   1s because heartbeats queue behind the saturated data traffic — this
   experiment measures throughput, not failover. *)
let e15_config ~n size =
  {
    (Repdb.Config.default ~n_sites:n) with
    Repdb.Config.batch =
      Some
        {
          Broadcast.Endpoint.max_msgs = size;
          max_delay = Sim.Time.of_ms 1;
        };
    tx_time = Sim.Time.of_us 200;
    suspect_after = Sim.Time.of_sec 1.0;
    atomic_batch_writes = true;
  }

let e15_table_of rows =
  let table =
    T.create
      ~title:
        "E15: broadcast batching / group commit — saturation throughput vs \
         batch size (5 sites, 16 in-flight clients per site, 200us NIC \
         serialization per datagram; order/commit counts sequencer \
         datagrams, amortized over each frame)"
      ~columns:
        [ "protocol"; "batch"; "committed"; "tps"; "p50 ms"; "p95 ms";
          "order/commit"; "contract" ]
  in
  List.iter
    (fun row ->
      T.add_row table
        [
          row.load_protocol;
          T.cell_int row.load_batch;
          T.cell_int row.load_committed;
          T.cell_float row.load_tps;
          T.cell_float row.load_p50_ms;
          T.cell_float row.load_p95_ms;
          Printf.sprintf "%.4f" row.load_order_per_commit;
          (if row.load_contract_ok then "ok" else "VIOLATED");
        ])
    rows;
  table

(* ------------------------------------------------------------------ *)
(* E16: saturation telemetry — where does the E15 curve bend, and why? *)

(* Resource key -> probe name. Per-site probes (bcast/db/proto) are summed
   across sites before averaging over the window: the question is how much
   of the resource the system holds, not where. *)
let e16_resources =
  [
    ("evq", "sim_events_pending");
    ("nic_us", "net_tx_backlog_us");
    ("delay", "bcast_delay_depth");
    ("order", "bcast_order_backlog");
    ("waiters", "db_lock_waiters");
    ("outst", "proto_outstanding");
  ]

(* Mean over the measurement window of the site-summed series [name]. *)
let e16_windowed_mean sampler ~window ~probe =
  let cols =
    Obs.Sampler.probes sampler
    |> List.mapi (fun i (n, _) -> (i, n))
    |> List.filter_map (fun (i, n) -> if n = probe then Some i else None)
  in
  let rows =
    List.filter
      (fun (at, _) -> R.in_window window at)
      (Obs.Sampler.samples sampler)
  in
  match (rows, cols) with
  | [], _ | _, [] -> 0.0
  | rows, cols ->
    let total =
      List.fold_left
        (fun acc (_, values) ->
          acc +. List.fold_left (fun a i -> a +. values.(i)) 0.0 cols)
        0.0 rows
    in
    total /. float_of_int (List.length rows)

let load_mean row key =
  match List.assoc_opt key row.load_means with Some v -> v | None -> 0.0

(* Per protocol (grid order): the knee cell's (protocol, batch) key and
   its "resource xratio" label. *)
let e16_knees rows =
  let protos =
    List.fold_left
      (fun acc r ->
        if List.mem r.load_protocol acc then acc else acc @ [ r.load_protocol ])
      [] rows
  in
  List.map
    (fun p ->
      let prows = List.filter (fun r -> r.load_protocol = p) rows in
      match prows with
      | [] -> invalid_arg "e16_knees: no rows for protocol"
      | base :: rest ->
        (* The knee: the first batch size whose throughput gain over the
           previous one falls under 15% — batching has stopped paying —
           or the largest size if the curve never flattens. *)
        let rec find prev = function
          | [] -> prev
          | r :: tl ->
            if r.load_tps < prev.load_tps *. 1.15 then r else find r tl
        in
        let knee = find base rest in
        (* Attribute the knee to the resource that grew the most relative
           to the batch=1 run. The denominator floor of 1 keeps a resource
           that is absent at base (mean 0) from dominating on noise. *)
        let resource, ratio =
          List.fold_left
            (fun (bk, bv) (key, _) ->
              let v = load_mean knee key /. Float.max (load_mean base key) 1.0 in
              if v > bv then (key, v) else (bk, bv))
            ("none", neg_infinity) e16_resources
        in
        ((p, knee.load_batch), Printf.sprintf "%s x%.1f" resource ratio))
    protos

let e16_table_of rows =
  let knees = e16_knees rows in
  let table =
    T.create
      ~title:
        "E16: saturation telemetry — windowed mean backlog per resource vs \
         batch size (the E15 runs, probes sampled every 10ms; evq = \
         engine events pending, nic us = NIC serialization backlog, delay \
         = causal delay-queue depth, order = total-order backlog, waiters \
         = queued lock requests, outst = undecided transactions at their \
         origin; 'knee' marks where batching stops paying >=15% and names \
         the resource that grew most vs batch=1)"
      ~columns:
        [ "protocol"; "batch"; "committed"; "tps"; "p50 ms"; "p95 ms";
          "evq"; "nic us"; "delay"; "order"; "waiters"; "outst"; "knee" ]
  in
  List.iter
    (fun row ->
      let mean = load_mean row in
      let knee_cell =
        Option.value ~default:""
          (List.assoc_opt (row.load_protocol, row.load_batch) knees)
      in
      T.add_row table
        [
          row.load_protocol;
          T.cell_int row.load_batch;
          T.cell_int row.load_committed;
          T.cell_float row.load_tps;
          T.cell_float row.load_p50_ms;
          T.cell_float row.load_p95_ms;
          Printf.sprintf "%.1f" (mean "evq");
          Printf.sprintf "%.1f" (mean "nic_us");
          Printf.sprintf "%.1f" (mean "delay");
          Printf.sprintf "%.1f" (mean "order");
          Printf.sprintf "%.1f" (mean "waiters");
          Printf.sprintf "%.1f" (mean "outst");
          knee_cell;
        ])
    rows;
  table

(* ------------------------------------------------------------------ *)
(* E17: critical-path blame decomposition *)

module CP = Critpath

type e17_row = {
  e17_protocol : string;
  e17_mode : string;
  e17_batch : int;
  e17_txns : int;
  e17_p50_ms : float;
  e17_shares : (string * float) list;
  e17_dominant : string;
  e17_max_residual_us : int;
  e17_rounds : int;
  e17_analytic_rounds : int;
}

(* Fold one run's extracted paths into a row. [rounds] only makes sense on
   the isolated runs (under concurrent load any site's traffic can stand
   in for an acknowledgment, so the walked path's tagged-hop count is
   legitimately mixed); load rows pass [analytic = -1] and get -1 back. *)
let e17_row_of ~protocol ~mode ~batch ~analytic paths =
  let blames = CP.blame_table paths in
  let shares =
    List.map (fun (b : CP.blame) -> (CP.seg_name b.CP.b_seg, b.CP.b_share)) blames
  in
  let dominant =
    List.fold_left
      (fun (bk, bv) (b : CP.blame) ->
        if b.CP.b_total_us > bv then (CP.seg_name b.CP.b_seg, b.CP.b_total_us)
        else (bk, bv))
      ("none", 0) blames
    |> fst
  in
  let p50_ms =
    let lat = List.sort compare (List.map CP.latency_us paths) in
    match lat with
    | [] -> 0.0
    | l -> float_of_int (List.nth l ((List.length l - 1) / 2)) /. 1000.0
  in
  let max_residual =
    List.fold_left (fun acc p -> max acc p.CP.p_residual_us) 0 paths
  in
  let rounds =
    if analytic < 0 then -1
    else
      match paths with
      | [] -> -1
      | p :: tl ->
        if List.for_all (fun q -> q.CP.p_rounds = p.CP.p_rounds) tl then
          p.CP.p_rounds
        else -1
  in
  {
    e17_protocol = protocol;
    e17_mode = mode;
    e17_batch = batch;
    e17_txns = List.length paths;
    e17_p50_ms = p50_ms;
    e17_shares = shares;
    e17_dominant = dominant;
    e17_max_residual_us = max_residual;
    e17_rounds = rounds;
    e17_analytic_rounds = analytic;
  }

let e17_table_of rows =
  let table =
    T.create
      ~title:
        "E17: critical-path blame decomposition — per-transaction latency \
         split into attributed wait segments (isolated rows: one client on \
         one site, constant 1ms links, tagged critical-path hops vs E14's \
         closed-form rounds; load rows: the E15 saturation sweep, where \
         the dominant segment names the E16 knee resource per txn; resid \
         us = worst per-txn unattributed time, ~0 by construction)"
      ~columns:
        [ "protocol"; "mode"; "batch"; "txns"; "p50 ms"; "local"; "lock";
          "batch-w"; "nic"; "link"; "order"; "timer"; "resid us"; "dominant";
          "rounds"; "analytic" ]
  in
  List.iter
    (fun row ->
      let share key =
        match List.assoc_opt key row.e17_shares with
        | Some v -> T.cell_pct v
        | None -> T.cell_pct 0.0
      in
      let opt_int v = if v < 0 then "-" else T.cell_int v in
      T.add_row table
        [
          row.e17_protocol;
          row.e17_mode;
          T.cell_int row.e17_batch;
          T.cell_int row.e17_txns;
          T.cell_float row.e17_p50_ms;
          share "local";
          share "lock-wait";
          share "batch-wait";
          share "nic-serialize";
          share "link-latency";
          share "ordering-wait";
          share "timer-wait";
          T.cell_int row.e17_max_residual_us;
          row.e17_dominant;
          opt_int row.e17_rounds;
          opt_int row.e17_analytic_rounds;
        ])
    rows;
  table

(* ------------------------------------------------------------------ *)
(* The saturation sweep behind E15, E16 and E17 *)

type saturation = { load_rows : load_row list; e17_rows : e17_row list }

let saturation ?(quick = false) () =
  let n = 5 in
  (* E17's isolated rounds cross-check: one client loop on one site,
     constant link latency, so no unrelated traffic can serve as an
     implicit acknowledgment and the walked path's tagged delivery hops
     must equal E14's closed-form round depths (reliable 2, causal 2,
     atomic 1). *)
  let iso_config =
    {
      (Repdb.Config.default ~n_sites:n) with
      Repdb.Config.latency = Net.Latency.Constant (Sim.Time.of_ms 1);
    }
  in
  let iso_window =
    {
      R.warmup = Sim.Time.of_ms 100;
      measure = Sim.Time.of_sec (if quick then 0.5 else 1.0);
    }
  in
  let window =
    {
      R.warmup = Sim.Time.of_sec (if quick then 0.25 else 0.5);
      measure = Sim.Time.of_sec (if quick then 0.5 else 1.0);
    }
  in
  let sizes = if quick then [ 1; 16 ] else [ 1; 4; 16; 64 ] in
  let cells =
    List.map (fun proto -> `Isolated proto) broadcast_protocols
    @ List.concat_map
        (fun proto -> List.map (fun size -> `Load (proto, size)) sizes)
        broadcast_protocols
  in
  let paths r =
    CP.explain
      ~spans:(Obs.Recorder.events r.R.recorder)
      ~audit:(Audit.Log.events r.R.audit)
  in
  let rows =
    Parallel.map cells ~f:(function
      | `Isolated proto ->
        let _, _, rounds =
          analytic_costs proto ~n ~w:costs_profile.Workload.writes_per_txn
        in
        let r =
          R.run
            (R.spec ~config:iso_config ~profile:costs_profile
               ~window:iso_window ~mpl:1 ~clients_on:[ 1 ] ~seed:17
               ~collect_spans:true ~collect_audit:true ~n_sites:n proto)
        in
        ( None,
          e17_row_of ~protocol:r.R.protocol_name ~mode:"isolated" ~batch:1
            ~analytic:rounds (paths r) )
      | `Load (proto, size) ->
        (* One fully instrumented run per cell — audit, spans and the 10ms
           sampler all on, none of which perturbs the simulation — folded
           into its load row and its E17 row here, so the run's logs die
           with the worker. No clients at site 0 (the
           sequencer/coordinator): its own transactions order locally
           without a network round trip, so a closed loop there never
           throttles and would drown the distributed commit path in
           loopback commits. *)
        let r =
          R.run
            (R.spec ~config:(e15_config ~n size) ~profile:costs_profile
               ~window ~mpl:16
               ~clients_on:(List.tl (Net.Site_id.all ~n))
               ~seed:15 ~collect_spans:true ~collect_audit:true
               ~sample_every:(Sim.Time.of_ms 10) ~n_sites:n proto)
        in
        let protocol = r.R.protocol_name in
        let committed = r.R.committed in
        (* Sequencer datagrams in the window: assignments of one batched
           sweep share a (sequencer, frame) tag and travelled as one
           datagram. *)
        let order_wire_msgs =
          Audit.Accounting.order_wire_msgs
            (List.filter
               (function
                 | Audit.Event.Order_assign { at; _ } -> R.in_window window at
                 | _ -> false)
               (Audit.Log.events r.R.audit))
        in
        ( Some
            {
              load_protocol = protocol;
              load_batch = size;
              load_committed = committed;
              load_tps = r.R.throughput_tps;
              load_p50_ms = Stats.Summary.percentile r.R.latency_ms 0.5;
              load_p95_ms = Stats.Summary.percentile r.R.latency_ms 0.95;
              load_order_per_commit =
                (if committed = 0 then 0.0
                 else float_of_int order_wire_msgs /. float_of_int committed);
              load_contract_ok =
                Audit.Log.report_ok (Audit.Log.finalize r.R.audit);
              load_means =
                List.map
                  (fun (key, probe) ->
                    (key, e16_windowed_mean r.R.sampler ~window ~probe))
                  e16_resources;
            },
          e17_row_of ~protocol ~mode:"load" ~batch:size ~analytic:(-1)
            (paths r) ))
  in
  { load_rows = List.filter_map fst rows; e17_rows = List.map snd rows }

let registry ?(quick = false) ?(sweep = lazy (saturation ~quick ())) () =
  let table (f : ?quick:bool -> unit -> Stats.Table.t) () = f ~quick () in
  [
    ("E1", table e1_messages);
    ("E2", table e2_latency_sites);
    ("E3", table e3_implicit_ack);
    ("E4", table e4_aborts);
    ("E5", table e5_throughput);
    ("E6", table e6_deadlocks);
    ("E7", table e7_failover);
    ("E8", table e8_readonly);
    ("E9", table e9_primitives);
    ("E10", table e10_batched_writes);
    ("E11", table e11_flooding);
    ("E12", table e12_lossy_links);
    ("E13", table e13_phase_breakdown);
    ("E14", table e14_audit_complexity);
    ("E15", fun () -> e15_table_of (Lazy.force sweep).load_rows);
    ("E16", fun () -> e16_table_of (Lazy.force sweep).load_rows);
    ("E17", fun () -> e17_table_of (Lazy.force sweep).e17_rows);
  ]

let all ?quick () =
  List.map (fun (id, table) -> (id, table ())) (registry ?quick ())
