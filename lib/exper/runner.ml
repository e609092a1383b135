module History = Verify.History
module Txn_id = Db.Txn_id

type event =
  | Crash of Net.Site_id.t
  | Recover of Net.Site_id.t
  | Partition of Net.Site_id.t list
  | Heal
  | Set_loss of Net.Network.loss option

type window = { warmup : Sim.Time.t; measure : Sim.Time.t }

let window_end w = Sim.Time.add w.warmup w.measure

let in_window w at =
  Sim.Time.( <= ) w.warmup at && Sim.Time.( < ) at (window_end w)

type spec = {
  protocol : Repdb.Protocol.id;
  config : Repdb.Config.t;
  profile : Workload.profile;
  txns_per_site : int;
  window : window option;
  mpl : int;
  clients_on : Net.Site_id.t list;
  seed : int;
  background_rate : float option;
  events : (Sim.Time.t * event) list;
  drain_limit : Sim.Time.t;
  collect_spans : bool;
  collect_audit : bool;
  sample_every : Sim.Time.t option;
}

let spec ?config ?(profile = Workload.default) ?(txns_per_site = 200) ?window
    ?(mpl = 2) ?clients_on ?(seed = 42) ?background_rate ?(events = [])
    ?(drain_limit = Sim.Time.of_sec 30.0) ?(collect_spans = false)
    ?(collect_audit = false) ?sample_every ~n_sites protocol =
  {
    protocol;
    config = Option.value config ~default:(Repdb.Config.default ~n_sites);
    profile;
    txns_per_site;
    window;
    mpl;
    clients_on =
      Option.value clients_on ~default:(Net.Site_id.all ~n:n_sites);
    seed;
    background_rate;
    events;
    drain_limit;
    collect_spans;
    collect_audit;
    sample_every;
  }

type result = {
  protocol_name : string;
  committed : int;
  aborted : int;
  undecided : int;
  aborts_by_reason : (History.abort_reason * int) list;
  latency_ms : Stats.Summary.t;
  ro_latency_ms : Stats.Summary.t;
  elapsed_sec : float;
  throughput_tps : float;
  datagrams : int;
  broadcasts : int;
  per_category : (string * int) list;
  drops_by_category : (string * int) list;
  deadlocks : int;
  decision_series : (float * float) list;
  background_committed : int;
  history : History.t;
  stores : (Net.Site_id.t * Db.Version_store.t) list;
  recorder : Obs.Recorder.t;
  audit : Audit.Log.t;
  sampler : Obs.Sampler.t;
}

(* Runner-level probes: event-queue depth, event-processing rate, and the
   GC's minor allocation rate. The deltas are measured strictly between
   ticks of one run (which executes uninterrupted on one domain), so they
   are deterministic regardless of the worker-pool size. *)
let install_sim_probes sampler engine =
  if Obs.Sampler.enabled sampler then begin
    Obs.Sampler.register sampler ~name:"sim_events_pending" (fun () ->
        float_of_int (Sim.Engine.pending engine));
    Obs.Sampler.register sampler ~name:"sim_events_processed"
      ~kind:Obs.Sampler.Delta (fun () ->
        float_of_int (Sim.Engine.processed engine));
    Obs.Sampler.register sampler ~name:"gc_minor_words"
      ~kind:Obs.Sampler.Delta (fun () -> Gc.minor_words ());
    Obs.Sampler.attach sampler engine
  end

let run s =
  let module P = (val Repdb.Protocol.get s.protocol) in
  let engine = Sim.Engine.create ~seed:s.seed () in
  let history = History.create () in
  let n = s.config.Repdb.Config.n_sites in
  (* Each run owns its recorder, audit log and sampler (never shared across
     domains): the result is a pure function of the spec, so pool size
     cannot matter. *)
  let recorder =
    if s.collect_spans then Obs.Recorder.create () else Obs.Recorder.none
  in
  let audit = if s.collect_audit then Audit.Log.create ~n else Audit.Log.none in
  let sampler =
    match s.sample_every with
    | Some interval -> Obs.Sampler.create ~interval ()
    | None -> Obs.Sampler.none
  in
  let config = { s.config with Repdb.Config.obs = recorder; audit; sampler } in
  let system = P.create engine config ~history in
  install_sim_probes sampler engine;
  let committed = ref 0
  and aborted = ref 0
  and bg_committed = ref 0
  and submitted = ref 0
  and decided = ref 0
  and last_decision = ref Sim.Time.zero in
  let latency = Stats.Summary.create ()
  and ro_latency = Stats.Summary.create () in
  let series = ref [] in
  let bg_ids = ref Txn_id.Set.empty in
  let down = Array.make n false in

  (* Closed-loop foreground clients: [mpl] per client site, each submitting
     its next transaction when the previous one decides. A quota run stops
     each site after [txns_per_site]; a windowed run has no quota, stops
     submitting when the window closes, and counts only the decisions
     that land inside it. *)
  let site_quota, submit_until, counts =
    match s.window with
    | None -> (s.txns_per_site, max_int, fun _ -> true)
    | Some w -> (max_int, window_end w, in_window w)
  in
  let quota =
    Array.init n (fun site ->
        if List.mem site s.clients_on then site_quota else 0)
  in
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  let gens =
    Array.init n (fun _ -> Workload.create s.profile ~rng)
  in
  let rec client site =
    if
      quota.(site) > 0
      && (not down.(site))
      && Sim.Time.( < ) (Sim.Engine.now engine) submit_until
    then begin
      quota.(site) <- quota.(site) - 1;
      let op = Workload.next gens.(site) in
      let read_only = Repdb.Op.is_read_only op in
      let start = Sim.Engine.now engine in
      incr submitted;
      ignore
        (P.submit system ~origin:site op ~on_done:(fun outcome ->
             let now = Sim.Engine.now engine in
             incr decided;
             last_decision := now;
             (if counts now then
                let ms = Sim.Time.to_ms (Sim.Time.diff now start) in
                match outcome with
                | History.Committed ->
                  incr committed;
                  if read_only then Stats.Summary.add ro_latency ms
                  else begin
                    Stats.Summary.add latency ms;
                    series := (Sim.Time.to_sec now, ms) :: !series
                  end
                | History.Aborted _ -> incr aborted);
             (* next request after a short think time *)
             ignore
               (Sim.Engine.schedule engine ~delay:(Sim.Time.of_us 100) (fun () ->
                    client site))))
    end
  in
  for site = 0 to n - 1 do
    for _client = 1 to s.mpl do
      client site
    done
  done;

  (* Optional Poisson background traffic on disjoint keys. *)
  (match s.background_rate with
  | Some rate when rate > 0.0 ->
    let bg_rng = Sim.Rng.split (Sim.Engine.rng engine) in
    let mean = 1.0 /. rate in
    let rec background site =
      let delay = Sim.Time.of_sec (Sim.Rng.exponential bg_rng ~mean) in
      ignore
        (Sim.Engine.schedule engine ~delay (fun () ->
             if not down.(site) then begin
               let key = s.profile.Workload.n_keys + site in
               let op = Workload.single_write ~key ~value:1 in
               let txn =
                 P.submit system ~origin:site op ~on_done:(fun outcome ->
                     if outcome = History.Committed then incr bg_committed)
               in
               bg_ids := Txn_id.Set.add txn !bg_ids
             end;
             background site))
    in
    for site = 0 to n - 1 do
      background site
    done
  | Some _ | None -> ());

  (* Failure schedule. *)
  List.iter
    (fun (time, ev) ->
      ignore
        (Sim.Engine.schedule_at engine ~time (fun () ->
             match ev with
             | Crash site ->
               down.(site) <- true;
               P.crash system site
             | Recover site ->
               down.(site) <- false;
               P.recover system site;
               (* restart the site's full multiprogramming level: every
                  client loop died when its in-flight decision arrived
                  while the site was down *)
               for _client = 1 to s.mpl do
                 client site
               done
             | Partition group -> P.partition system group
             | Heal -> P.heal system
             | Set_loss loss -> P.set_loss system loss)))
    s.events;

  (* Drive the load to its end. A windowed run ends when the window
     closes. A quota run advances in slices until every foreground
     transaction has decided (the membership timers keep the event queue
     nonempty forever, so "queue empty" is not a termination signal) or
     none has decided for [drain_limit]. *)
  (match s.window with
  | Some w -> Sim.Engine.run_until engine (window_end w)
  | None ->
    let slice = Sim.Time.of_ms 100 in
    let expected () =
      (* foreground quota that will ever be submitted *)
      !submitted + Array.fold_left ( + ) 0 quota
    in
    let rec drive horizon =
      Sim.Engine.run_until engine horizon;
      if
        !decided < expected ()
        && Sim.Time.( < ) (Sim.Engine.now engine)
             (Sim.Time.add !last_decision s.drain_limit)
      then drive (Sim.Time.add horizon slice)
    in
    drive slice);
  (* The last origin-side decision does not mean the replicas are done:
     votes, acknowledgments and apply events for the tail are still in
     flight, and scheduled failure events may lie beyond the workload.
     Run a generous grace period so every replica quiesces. *)
  let grace_end =
    List.fold_left
      (fun acc (time, _) -> Sim.Time.max acc time)
      (Sim.Engine.now engine) s.events
  in
  Sim.Engine.run_until engine
    (Sim.Time.add grace_end (Sim.Time.of_sec 3.0));
  (* Balance the trace: transactions the run left undecided (crashed
     origin, drain limit) still have open phase spans. *)
  Obs.Recorder.close_dangling recorder ~at:(Sim.Engine.now engine);
  (* Freeze the audit verdict: the agreement monitor judges end-of-run
     state, so it must run after the drain grace. Idempotent, and a no-op
     on the disabled log. *)
  ignore (Audit.Log.finalize audit);

  let elapsed_sec =
    match s.window with
    | Some w -> Sim.Time.to_sec w.measure
    | None -> Sim.Time.to_sec !last_decision
  in
  let reasons =
    List.fold_left
      (fun acc r ->
        if Txn_id.Set.mem r.History.txn !bg_ids then acc
        else
          match r.History.outcome with
          | Some (History.Aborted reason) -> begin
            match List.assoc_opt reason acc with
            | Some n -> (reason, n + 1) :: List.remove_assoc reason acc
            | None -> (reason, 1) :: acc
          end
          | Some History.Committed | None -> acc)
      [] (History.txns history)
  in
  let net = P.net_stats system in
  {
    protocol_name = P.name;
    committed = !committed;
    aborted = !aborted;
    undecided = !submitted - !decided;
    aborts_by_reason = reasons;
    latency_ms = latency;
    ro_latency_ms = ro_latency;
    elapsed_sec;
    throughput_tps =
      (if elapsed_sec > 0.0 then float_of_int !committed /. elapsed_sec else 0.0);
    datagrams = Net.Net_stats.datagrams net;
    broadcasts = Net.Net_stats.broadcasts net;
    per_category = Net.Net_stats.by_category net;
    drops_by_category = Net.Net_stats.drops_by_category net;
    deadlocks = P.deadlocks system;
    decision_series = List.rev !series;
    background_committed = !bg_committed;
    history;
    stores =
      List.filter_map
        (fun site -> if down.(site) then None else Some (site, P.store system site))
        (Net.Site_id.all ~n);
    recorder;
    audit;
    sampler;
  }

let check_execution ?require_all_decided ?deadlock_free result =
  let deadlock_free =
    match deadlock_free with
    | Some b -> b
    | None -> result.protocol_name <> Repdb.Protocol.name Repdb.Protocol.Baseline
  in
  Verify.Check.check_execution ?require_all_decided ~deadlock_free
    ~history:result.history ~stores:result.stores ()

let one_copy_serializable result =
  Verify.Serialization.is_one_copy_serializable result.history

let converged result = Verify.Convergence.converged result.stores

let abort_rate result =
  let decided = result.committed + result.aborted in
  if decided = 0 then 0.0 else float_of_int result.aborted /. float_of_int decided
