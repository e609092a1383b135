module Txn_id = Db.Txn_id
module History = Verify.History
module Endpoint = Broadcast.Endpoint

type outcome = Protocol_intf.outcome

type 'o origin = { on_done : outcome -> unit; state : 'o }

type ('p, 'o, 's) site = {
  core : Site_core.t;
  ep : 'p Endpoint.t;
  orig : 'o origin option Sim.Int_table.t;  (* keyed by [Txn_id.key] *)
  mutable next_local : int;
  proto : 's;
}

type ('p, 'o, 's) t = {
  engine : Sim.Engine.t;
  config : Config.t;
  history : History.t;
  group : 'p Endpoint.group;
  sites : ('p, 'o, 's) site array;
}

let obs t = t.config.Config.obs
let now t = Sim.Engine.now t.engine

let atxn (txn : Txn_id.t) = (txn.Txn_id.origin, txn.Txn_id.local)
let majority t = (t.config.Config.n_sites / 2) + 1

let create engine config ~history ~classify ~proto ~deliver ~on_view ~export
    ~install =
  let group =
    Endpoint.create_group engine ~n:config.Config.n_sites
      ~latency:config.Config.latency ~classify
      ~hb_interval:config.Config.hb_interval
      ~suspect_after:config.Config.suspect_after ~flood:config.Config.flood
      ?batch:config.Config.batch ~tx_time:config.Config.tx_time
      ?loss:config.Config.loss ~sampler:config.Config.sampler
      ~audit:config.Config.audit
      ~bug_causal_inversion:config.Config.bug_causal_inversion
      ~bug_total_divergence:config.Config.bug_total_divergence ()
  in
  let make_site site =
    {
      core =
        Site_core.create ~sampler:config.Config.sampler ~site
          ~policy:Db.Lock_manager.No_wait ~history ();
      ep = (Endpoint.endpoints group).(site);
      orig = Sim.Int_table.create ~vacant:None;
      next_local = 0;
      proto = proto ();
    }
  in
  let t =
    {
      engine;
      config;
      history;
      group;
      sites = Array.init config.Config.n_sites make_site;
    }
  in
  Array.iter
    (fun st ->
      Endpoint.set_deliver st.ep (fun d -> deliver t st d);
      Endpoint.set_on_view st.ep (fun view -> on_view t st view);
      Endpoint.set_snapshot_hooks st.ep
        ~get:(fun () -> export st)
        ~install:(fun payload ->
          (* Nothing from before the crash survives: the old locks would
             refuse later writes here and block readers forever. *)
          Sim.Int_table.clear st.orig;
          Site_core.reset st.core;
          install t st payload))
    t.sites;
  if Obs.Sampler.enabled config.Config.sampler then
    Array.iter
      (fun st ->
        let site = Site_core.site st.core in
        Obs.Sampler.register config.Config.sampler ~name:"proto_outstanding"
          ~labels:[ ("site", string_of_int site) ] (fun () ->
            float_of_int (Sim.Int_table.length st.orig)))
      t.sites;
  t

let finish_at_origin t st txn outcome =
  match Sim.Int_table.find st.orig (Txn_id.key txn) with
  | Some o ->
    Sim.Int_table.remove st.orig (Txn_id.key txn);
    History.record_outcome t.history txn outcome;
    o.on_done outcome
  | None -> ()

let decide t st txn outcome =
  let site = Site_core.site st.core in
  (match outcome with
  | History.Committed ->
    Obs_hooks.decide (obs t) ~now:(now t) ~site txn ~committed:true;
    Obs_hooks.apply (obs t) ~now:(now t) ~site txn
  | History.Aborted _ ->
    Obs_hooks.decide (obs t) ~now:(now t) ~site txn ~committed:false);
  finish_at_origin t st txn outcome

let commit_read_only t st txn =
  Obs_hooks.decide (obs t) ~now:(now t) ~site:(Site_core.site st.core) txn
    ~committed:true;
  finish_at_origin t st txn History.Committed

let phase t st txn ph =
  Obs_hooks.phase (obs t) ~now:(now t) ~site:(Site_core.site st.core) txn ph

let submit t ~origin ~on_done state start =
  let st = t.sites.(origin) in
  st.next_local <- st.next_local + 1;
  let txn = Txn_id.make ~origin ~local:st.next_local in
  History.begin_txn t.history txn ~origin;
  Obs_hooks.submit (obs t) ~now:(now t) ~site:origin txn;
  if not (Endpoint.is_ready st.ep) then begin
    (* The site is down or mid-join: reject rather than act on stale state. *)
    Obs_hooks.decide (obs t) ~now:(now t) ~site:origin txn ~committed:false;
    History.record_outcome t.history txn (History.Aborted History.View_change);
    on_done (History.Aborted History.View_change)
  end
  else begin
    Sim.Int_table.replace st.orig (Txn_id.key txn) (Some { on_done; state });
    start st txn
  end;
  txn

let locking_reads t st txn spec ~broadcast =
  phase t st txn Obs.Span.Lock_wait;
  Site_core.run_reads st.core ~txn ~keys:spec.Op.reads ~on_done:(fun results ->
      let writes = Op.write_set spec ~read_results:results in
      History.record_writes t.history txn writes;
      if writes = [] then begin
        Site_core.abort_local st.core ~txn;  (* releases read locks *)
        commit_read_only t st txn
      end
      else begin
        phase t st txn Obs.Span.Broadcast;
        broadcast writes
      end)

let relock st ~txn ~refused writes =
  List.fold_left
    (fun refused_here (key, value) ->
      Site_core.buffer_write st.core ~txn key value;
      if refused then true
      else
        match
          Site_core.acquire_write st.core ~txn key ~on_granted:(fun () -> ())
        with
        | Db.Lock_manager.Granted -> refused_here
        | Db.Lock_manager.Refused -> true
        | Db.Lock_manager.Queued -> assert false (* No_wait policy *))
    refused writes

module Ops = struct
  let net_stats t = Endpoint.stats t.group
  let store t s = Site_core.store t.sites.(s).core
  let deadlocks _ = 0
  let supports_failures = true
  let crash t s = Endpoint.crash t.group s
  let recover t s = Endpoint.recover t.group s
  let partition t sites = Endpoint.partition t.group sites
  let heal t = Endpoint.heal t.group
  let set_loss t loss = Endpoint.set_loss t.group loss
end
