module Txn_id = Db.Txn_id
module Site_id = Net.Site_id
module History = Verify.History

type outcome = Protocol_intf.outcome

let name = "baseline"

type msg =
  | Write_req of { txn : Txn_id.t; key : Op.key; value : Op.value }
  | Write_ack of { txn : Txn_id.t; key : Op.key }
  | Commit_req of { txn : Txn_id.t }
  | Vote of { txn : Txn_id.t; yes : bool }
  | Abort_txn of { txn : Txn_id.t }

let classify = function
  | Write_req _ -> "write"
  | Write_ack _ -> "ack"
  | Commit_req _ -> "commitreq"
  | Vote _ -> "vote"
  | Abort_txn _ -> "abort"

(* Origin-side transaction state. *)
type origin_rec = {
  o_txn : Txn_id.t;
  o_spec : Op.spec;
  o_on_done : outcome -> unit;
  mutable o_writes : (Op.key * Op.value) list;
  mutable o_outstanding : int;  (* local grants + remote acks still due *)
  mutable o_commit_sent : bool;
  mutable o_decided : bool;
}

(* Participant-side state: exists at every site (including the origin) once
   the transaction's writes start arriving. *)
type part_rec = {
  mutable p_votes_yes : Site_id.Set.t;
  mutable p_decided : bool;
}

type site_state = {
  core : Site_core.t;
  orig : origin_rec Txn_id.Tbl.t;
  part : part_rec Txn_id.Tbl.t;
  mutable next_local : int;
}

type t = {
  engine : Sim.Engine.t;
  config : Config.t;
  history : History.t;
  net : msg Net.Network.t;
  sites : site_state array;
  mutable deadlocks : int;
}

let obs t = t.config.Config.obs
let now t = Sim.Engine.now t.engine

let net_stats t = Net.Network.stats t.net
let store t s = Site_core.store t.sites.(s).core
let deadlocks_detected t = t.deadlocks
let deadlocks = deadlocks_detected

let supports_failures = false
let crash _ _ = invalid_arg "Baseline_rowa: two-phase commit blocks on failures"
let recover _ _ = invalid_arg "Baseline_rowa: failures unsupported"
let partition _ _ = invalid_arg "Baseline_rowa: failures unsupported"
let heal _ = invalid_arg "Baseline_rowa: failures unsupported"
let set_loss t loss = Net.Network.set_loss t.net loss

let others t me =
  List.filter (fun s -> not (Site_id.equal s me)) (Net.Network.sites t.net)

let part_of st txn =
  match Txn_id.Tbl.find_opt st.part txn with
  | Some p -> p
  | None ->
    let p = { p_votes_yes = Site_id.Set.empty; p_decided = false } in
    Txn_id.Tbl.add st.part txn p;
    p

(* Local abort at one site: release locks and buffers, mark decided. *)
let abort_at t ~site txn ~reason =
  let st = t.sites.(site) in
  let p = part_of st txn in
  if not p.p_decided then begin
    p.p_decided <- true;
    Site_core.abort_local st.core ~txn;
    Obs_hooks.decide (obs t) ~now:(now t) ~site txn ~committed:false;
    match Txn_id.Tbl.find_opt st.orig txn with
    | Some o when not o.o_decided ->
      o.o_decided <- true;
      History.record_outcome t.history txn (History.Aborted reason);
      o.o_on_done (History.Aborted reason)
    | Some _ | None -> ()
  end

let commit_at t ~site txn =
  let st = t.sites.(site) in
  let p = part_of st txn in
  if not p.p_decided then begin
    p.p_decided <- true;
    Site_core.apply_commit st.core ~txn;
    Obs_hooks.decide (obs t) ~now:(now t) ~site txn ~committed:true;
    Obs_hooks.apply (obs t) ~now:(now t) ~site txn;
    match Txn_id.Tbl.find_opt st.orig txn with
    | Some o when not o.o_decided ->
      o.o_decided <- true;
      History.record_outcome t.history txn History.Committed;
      o.o_on_done History.Committed
    | Some _ | None -> ()
  end

(* Decentralized 2PC vote bookkeeping: every site hears every vote; a
   negative vote aborts immediately, a full set of positives commits. *)
let note_vote t ~site txn ~voter ~yes =
  let st = t.sites.(site) in
  let p = part_of st txn in
  if not p.p_decided then begin
    if not yes then abort_at t ~site txn ~reason:History.Deadlock_victim
    else begin
      p.p_votes_yes <- Site_id.Set.add voter p.p_votes_yes;
      if Site_id.Set.cardinal p.p_votes_yes = t.config.Config.n_sites then
        commit_at t ~site txn
    end
  end

(* A site casts its vote: to everyone else over the wire, to itself
   directly. Votes yes iff it still knows the transaction as undecided with
   all writes granted — any abort removed the record. *)
let cast_vote t ~site txn ~yes =
  List.iter
    (fun dst -> Net.Network.send t.net ~src:site ~dst (Vote { txn; yes }))
    (others t site);
  note_vote t ~site txn ~voter:site ~yes

let start_commit_round t ~site txn =
  (* At the origin: write dissemination is fully acknowledged, the 2PC
     vote round starts. *)
  Obs_hooks.phase (obs t) ~now:(now t) ~site txn Obs.Span.Vote_collect;
  List.iter
    (fun dst -> Net.Network.send t.net ~src:site ~dst (Commit_req { txn }))
    (others t site);
  cast_vote t ~site txn ~yes:true

(* Origin: a write acknowledgment (local grant or remote ack) arrived. *)
let note_write_done t ~site o =
  if not o.o_decided then begin
    o.o_outstanding <- o.o_outstanding - 1;
    if o.o_outstanding = 0 && not o.o_commit_sent then begin
      o.o_commit_sent <- true;
      start_commit_round t ~site o.o_txn
    end
  end

(* Origin: reads done, enter the write phase. *)
let write_phase t ~site o read_results =
  let st = t.sites.(site) in
  if not o.o_decided then begin
    let writes = Op.write_set o.o_spec ~read_results in
    o.o_writes <- writes;
    History.record_writes t.history o.o_txn writes;
    if writes = [] then begin
      (* Read-only: commit locally, nothing to replicate. *)
      let p = part_of st o.o_txn in
      p.p_decided <- true;
      o.o_decided <- true;
      Site_core.abort_local st.core ~txn:o.o_txn;  (* releases read locks *)
      Obs_hooks.decide (obs t) ~now:(now t) ~site o.o_txn ~committed:true;
      History.record_outcome t.history o.o_txn History.Committed;
      o.o_on_done History.Committed
    end
    else begin
      ignore (part_of st o.o_txn);
      (* Point-to-point write dissemination stands in for the broadcast
         phase of the group protocols — same column in the breakdown. *)
      Obs_hooks.phase (obs t) ~now:(now t) ~site o.o_txn Obs.Span.Broadcast;
      let n = t.config.Config.n_sites in
      o.o_outstanding <- List.length writes * n;
      List.iter
        (fun (key, value) ->
          Site_core.buffer_write st.core ~txn:o.o_txn key value;
          (match
             Site_core.acquire_write st.core ~txn:o.o_txn key
               ~on_granted:(fun () -> note_write_done t ~site o)
           with
          | Db.Lock_manager.Granted -> note_write_done t ~site o
          | Db.Lock_manager.Queued -> ()
          | Db.Lock_manager.Refused -> assert false (* Wait policy *));
          List.iter
            (fun dst ->
              Net.Network.send t.net ~src:site ~dst
                (Write_req { txn = o.o_txn; key; value }))
            (others t site))
        writes
    end
  end

let handle t ~site ~src msg =
  let st = t.sites.(site) in
  match msg with
  | Write_req { txn; key; value } ->
    let p = part_of st txn in
    if not p.p_decided then begin
      Site_core.buffer_write st.core ~txn key value;
      let ack () =
        Net.Network.send t.net ~src:site ~dst:src (Write_ack { txn; key })
      in
      match Site_core.acquire_write st.core ~txn key ~on_granted:ack with
      | Db.Lock_manager.Granted -> ack ()
      | Db.Lock_manager.Queued -> ()
      | Db.Lock_manager.Refused -> assert false
    end
  | Write_ack { txn; key = _ } -> begin
    match Txn_id.Tbl.find_opt st.orig txn with
    | Some o -> note_write_done t ~site o
    | None -> ()
  end
  | Commit_req { txn } ->
    (* All of the transaction's writes were granted here before the origin
       sent this (acks precede it); vote yes unless we aborted it. *)
    let p = part_of st txn in
    cast_vote t ~site txn ~yes:(not p.p_decided)
  | Vote { txn; yes } -> note_vote t ~site txn ~voter:src ~yes
  | Abort_txn { txn } -> abort_at t ~site txn ~reason:History.Deadlock_victim

let deadlock_check_period = Sim.Time.of_ms 100

(* Global waits-for-graph deadlock detector: unions every site's local
   graph — a distributed deadlock appears as a cycle in the union — and
   aborts the youngest transaction on any cycle. *)
let rec deadlock_detector t =
  let edges =
    Array.to_list t.sites
    |> List.concat_map (fun st -> Db.Lock_manager.waits_for_edges (Site_core.locks st.core))
  in
  (match Db.Deadlock.find_cycle edges with
  | Some cycle ->
    t.deadlocks <- t.deadlocks + 1;
    let victim = Db.Deadlock.choose_victim cycle in
    let origin = victim.Txn_id.origin in
    (* The origin aborts the victim and tells every other site. *)
    List.iter
      (fun dst ->
        Net.Network.send t.net ~src:origin ~dst (Abort_txn { txn = victim }))
      (others t origin);
    abort_at t ~site:origin victim ~reason:History.Deadlock_victim
  | None -> ());
  ignore
    (Sim.Engine.schedule t.engine ~delay:deadlock_check_period (fun () ->
         deadlock_detector t))

let create engine config ~history =
  let net =
    Net.Network.create engine ~n:config.Config.n_sites
      ~latency:config.Config.latency ~classify ?loss:config.Config.loss ()
  in
  let make_site site =
    {
      core =
        Site_core.create ~sampler:config.Config.sampler ~site
          ~policy:Db.Lock_manager.Wait ~history ();
      orig = Txn_id.Tbl.create 32;
      part = Txn_id.Tbl.create 32;
      next_local = 0;
    }
  in
  let t =
    {
      engine;
      config;
      history;
      net;
      sites = Array.init config.Config.n_sites make_site;
      deadlocks = 0;
    }
  in
  Array.iteri
    (fun site _ ->
      Net.Network.set_handler net site (fun ~src msg -> handle t ~site ~src msg))
    t.sites;
  (if Obs.Sampler.enabled config.Config.sampler then begin
     (* no broadcast layer here, so the baseline registers the network's
        probes itself (the endpoint group does it for the other protocols) *)
     let sampler = config.Config.sampler in
     Net.Network.register_probes net sampler;
     Array.iter
       (fun st ->
         let site = Site_core.site st.core in
         Obs.Sampler.register sampler ~name:"proto_outstanding"
           ~labels:[ ("site", string_of_int site) ] (fun () ->
             float_of_int (Txn_id.Tbl.length st.orig)))
       t.sites
   end);
  deadlock_detector t;
  t

let submit t ~origin spec ~on_done =
  let st = t.sites.(origin) in
  st.next_local <- st.next_local + 1;
  let txn = Txn_id.make ~origin ~local:st.next_local in
  History.begin_txn t.history txn ~origin;
  let o =
    {
      o_txn = txn;
      o_spec = spec;
      o_on_done = on_done;
      o_writes = [];
      o_outstanding = 0;
      o_commit_sent = false;
      o_decided = false;
    }
  in
  Txn_id.Tbl.add st.orig txn o;
  Obs_hooks.submit (obs t) ~now:(now t) ~site:origin txn;
  Obs_hooks.phase (obs t) ~now:(now t) ~site:origin txn Obs.Span.Lock_wait;
  Site_core.run_reads st.core ~txn ~keys:spec.Op.reads ~on_done:(fun results ->
      write_phase t ~site:origin o results);
  txn
