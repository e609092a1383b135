module Txn_id = Db.Txn_id
module Site_id = Net.Site_id
module History = Verify.History
module Endpoint = Broadcast.Endpoint
module Vc = Lclock.Vector_clock

type outcome = Protocol_intf.outcome

let name = "causal"

type active_export = {
  ax_txn : Txn_id.t;
  ax_origin : Site_id.t;
  ax_writes : (Op.key * Op.value) list;
  ax_refused : bool;
  ax_nacks : Site_id.t list;
  ax_nack_witnesses : Site_id.t list;
  ax_echo_sent : bool;
  ax_participants : Site_id.t list;
  ax_cr : int array option;  (* commit-request stamp *)
}

type payload =
  | Write of { txn : Txn_id.t; key : Op.key; value : Op.value }
  | Commit_req of { txn : Txn_id.t; participants : Site_id.t list }
      (** the origin's view members at commit request time: the exact set
          whose implicit acknowledgments (and explicit NACKs) count, fixed
          once so sites deciding during a view transition agree *)
  | Nack of { txn : Txn_id.t }
  | Nack_echo of { txn : Txn_id.t; nacker : Site_id.t }
      (** "I have seen [nacker]'s NACK": each site re-broadcasts the first
          NACK it learns of (directly or via an echo); an abort is finalized
          only once a majority of all sites is known to have seen one — see
          [check_decision] *)
  | Ack
  | Snapshot of { xfer : State_transfer.t; active : active_export list }

let classify = function
  | Write _ -> "write"
  | Commit_req _ -> "commitreq"
  | Nack _ -> "nack"
  | Nack_echo _ -> "nack"
  | Ack -> "ack"
  | Snapshot _ -> "snapshot"

type part_rec = {
  p_txn : Txn_id.t;
  p_origin : Site_id.t;
  mutable p_refused : bool;  (* this site refused one of its writes *)
  mutable p_nacks : Site_id.Set.t;  (* sites whose NACK was delivered here *)
  mutable p_nack_witnesses : Site_id.Set.t;
      (* sites known to have seen a NACK: the nackers themselves plus every
         site whose echo was delivered here *)
  mutable p_nack_sent : bool;
  mutable p_echo_sent : bool;
  mutable p_participants : Site_id.Set.t;  (* electorate; set with the cr *)
  mutable p_cr : Vc.t option;  (* stamp of the delivered commit request *)
  mutable p_decided : bool;
}

type origin_rec = {
  o_on_done : outcome -> unit;
  mutable o_self_pending : int;
      (** own writes not yet self-delivered; the commit request is deferred
          until this reaches 0, so an origin-side refusal NACKs {e before}
          the commit request in the origin's causal stream — the ordering
          the protocol's safety argument needs *)
  mutable o_cr_sent : bool;
}

type site_state = {
  core : Site_core.t;
  ep : payload Endpoint.t;
  part : part_rec Txn_id.Tbl.t;
  orig : origin_rec Txn_id.Tbl.t;
  (* implicit-acknowledgment machinery *)
  mutable last_vc : Vc.t option array;  (* per sender: stamp of last delivery *)
  lock_stamp : (Op.key, Txn_id.t * Vc.t) Hashtbl.t;  (* X holder's write stamp *)
  mutable my_bcasts : int;  (* causal messages this site has sent *)
  mutable next_local : int;
}

type t = {
  engine : Sim.Engine.t;
  config : Config.t;
  history : History.t;
  group : payload Endpoint.group;
  sites : site_state array;
}

let obs t = t.config.Config.obs
let now t = Sim.Engine.now t.engine

let net_stats t = Endpoint.stats t.group
let store t s = Site_core.store t.sites.(s).core
let log t s = Site_core.log t.sites.(s).core

let deadlocks _ = 0
let supports_failures = true
let crash t s = Endpoint.crash t.group s
let recover t s = Endpoint.recover t.group s
let partition t sites = Endpoint.partition t.group sites
let heal t = Endpoint.heal t.group
let set_loss t loss = Endpoint.set_loss t.group loss

let part_of st ~txn ~origin =
  match Txn_id.Tbl.find_opt st.part txn with
  | Some p -> p
  | None ->
    let p =
      {
        p_txn = txn;
        p_origin = origin;
        p_refused = false;
        p_nacks = Site_id.Set.empty;
        p_nack_witnesses = Site_id.Set.empty;
        p_nack_sent = false;
        p_echo_sent = false;
        p_participants = Site_id.Set.empty;
        p_cr = None;
        p_decided = false;
      }
    in
    Txn_id.Tbl.add st.part txn p;
    p

let bcast ?txn st payload =
  st.my_bcasts <- st.my_bcasts + 1;
  ignore (Endpoint.broadcast ?txn st.ep `Causal payload)

(* Tag audit-lineage sends with their originating transaction. *)
let atxn (txn : Txn_id.t) = (txn.Txn_id.origin, txn.Txn_id.local)

let finish_at_origin t st txn outcome =
  match Txn_id.Tbl.find_opt st.orig txn with
  | Some o ->
    Txn_id.Tbl.remove st.orig txn;
    History.record_outcome t.history txn outcome;
    o.o_on_done outcome
  | None -> ()

let drop_lock_stamps st txn =
  let keys = List.map fst (Site_core.buffered_writes st.core ~txn) in
  List.iter
    (fun k ->
      match Hashtbl.find_opt st.lock_stamp k with
      | Some (holder, _) when Txn_id.equal holder txn -> Hashtbl.remove st.lock_stamp k
      | Some _ | None -> ())
    keys

let abort_at t st p ~reason =
  if not p.p_decided then begin
    p.p_decided <- true;
    drop_lock_stamps st p.p_txn;
    Site_core.abort_local st.core ~txn:p.p_txn;
    Obs_hooks.decide (obs t) ~now:(now t) ~site:(Site_core.site st.core)
      p.p_txn ~committed:false;
    finish_at_origin t st p.p_txn (History.Aborted reason)
  end

let commit_at t st p =
  if not p.p_decided then begin
    p.p_decided <- true;
    drop_lock_stamps st p.p_txn;
    Site_core.apply_commit st.core ~txn:p.p_txn;
    Obs_hooks.decide (obs t) ~now:(now t) ~site:(Site_core.site st.core)
      p.p_txn ~committed:true;
    Obs_hooks.apply (obs t) ~now:(now t) ~site:(Site_core.site st.core) p.p_txn;
    finish_at_origin t st p.p_txn History.Committed
  end

(* The implicit-acknowledgment test: every participant still in the current
   view has been heard from causally after the commit request. *)
let implicitly_acked st p =
  match p.p_cr with
  | None -> false
  | Some vcr ->
    let o = p.p_origin in
    let me = Site_core.site st.core in
    let need = Vc.get vcr o in
    let view = Endpoint.view st.ep in
    Site_id.Set.for_all
      (fun r ->
        Site_id.equal r o || Site_id.equal r me
        || (not (Broadcast.View.mem view r))
        ||
        match st.last_vc.(r) with
        | Some v -> Vc.get v o >= need
        | None -> false)
      p.p_participants

let majority t = (t.config.Config.n_sites / 2) + 1

let check_decision t st p =
  if not p.p_decided && Site_id.Set.mem p.p_origin p.p_nacks then
    (* The origin NACKed its own transaction (a refusal during its write
       phase): no commit request will ever follow — no site can ever commit
       it, so this abort is authoritative without a stability proof. *)
    abort_at t st p ~reason:History.Write_conflict
  else if not p.p_decided && p.p_cr <> None then begin
    let me = Site_core.site st.core in
    let nacked_by_participant =
      not (Site_id.Set.is_empty (Site_id.Set.inter p.p_nacks p.p_participants))
    in
    (* A local refusal matters only if we are a participant; a joiner whose
       replayed interleaving refused a write that the electorate accepted
       still applies the committed write set. *)
    let locally_blocked = p.p_refused && Site_id.Set.mem me p.p_participants in
    (* A participant's NACK blocks the commit immediately but finalizes the
       abort only once a majority of all sites is known to have seen a NACK
       (nackers plus echoers): under a partition a NACK may reach only a
       minority side that is later expelled and re-initialized, while the
       surviving primary component — which never saw it — commits. The
       majority-witness rule makes that split impossible (any future primary
       view intersects the witnesses); a site that cannot prove stability
       waits, and a doomed minority origin leaves its client with an
       undecided transaction rather than a wrong abort. *)
    if
      nacked_by_participant
      && Site_id.Set.cardinal p.p_nack_witnesses >= majority t
    then abort_at t st p ~reason:History.Write_conflict
    else if
      (not nacked_by_participant) && (not locally_blocked)
      && Endpoint.is_primary st.ep && implicitly_acked st p
    then commit_at t st p
  end

let scan_pending t st =
  Txn_id.Tbl.iter (fun _ p -> check_decision t st p) st.part

let send_nack st p =
  if not p.p_nack_sent then begin
    p.p_nack_sent <- true;
    bcast ~txn:(atxn p.p_txn) st (Nack { txn = p.p_txn })
  end

let handle_write t st ~txn ~origin ~key ~value ~stamp =
  let p = part_of st ~txn ~origin in
  if not p.p_decided then begin
    Site_core.buffer_write st.core ~txn key value;
    match Site_core.acquire_write st.core ~txn key ~on_granted:(fun () -> ()) with
    | Db.Lock_manager.Granted -> Hashtbl.replace st.lock_stamp key (txn, stamp)
    | Db.Lock_manager.Refused ->
      p.p_refused <- true;
      send_nack st p;
      (* Early conflict detection: if the conflicting writes are concurrent
         and the holder's commit request has not reached us, no site can
         have committed the holder yet — NACKing it too is safe and saves
         its remaining work (the paper's early abort of both). *)
      if t.config.Config.early_ww_abort then begin
        match Hashtbl.find_opt st.lock_stamp key with
        | Some (holder, holder_stamp) when Vc.concurrent holder_stamp stamp -> begin
          match Txn_id.Tbl.find_opt st.part holder with
          | Some hp when hp.p_cr = None && not hp.p_decided -> send_nack st hp
          | Some _ | None -> ()
        end
        | Some _ | None -> ()
      end
    | Db.Lock_manager.Queued -> assert false (* No_wait policy *)
  end;
  (* Origin side: once all own writes have self-delivered, broadcast the
     commit request — unless one was refused, in which case the NACK already
     sent must stay ahead of any commit request. *)
  if Site_id.equal (Site_core.site st.core) txn.Txn_id.origin then begin
    match Txn_id.Tbl.find_opt st.orig txn with
    | Some o when not o.o_cr_sent ->
      o.o_self_pending <- o.o_self_pending - 1;
      if o.o_self_pending = 0 && not p.p_refused then begin
        o.o_cr_sent <- true;
        let participants =
          Broadcast.View.members_list (Endpoint.view st.ep)
        in
        bcast ~txn:(atxn txn) st (Commit_req { txn; participants })
      end
    | Some _ | None -> ()
  end

let handle_commit_req t st ~txn ~origin ~stamp ~participants =
  let p = part_of st ~txn ~origin in
  if not p.p_decided then begin
    p.p_cr <- Some stamp;
    p.p_participants <- Site_id.Set.of_list participants;
    (* The origin's broadcast phase ends when its own commit request comes
       back; from here it is waiting for implicit acknowledgments. *)
    if Site_core.site st.core = txn.Txn_id.origin then
      Obs_hooks.phase (obs t) ~now:(now t) ~site:(Site_core.site st.core) txn
        Obs.Span.Vote_collect;
    if p.p_refused then send_nack st p;
    check_decision t st p;
    (* Idle-acknowledgment option: if we stay silent, our silence stalls
       everyone else's implicit acknowledgment of this transaction — even
       if we have already decided it ourselves, the others still need to
       hear from us causally after the commit request. *)
    match t.config.Config.ack_delay with
    | Some delay ->
      let count = st.my_bcasts in
      ignore
        (Sim.Engine.schedule t.engine ~delay (fun () ->
             if st.my_bcasts = count && Endpoint.is_ready st.ep then
               bcast st Ack))
    | None -> ()
  end

(* Record knowledge of [nacker]'s NACK, with [witnesses] the sites newly
   known to share that knowledge, and echo it once (a site that broadcast
   its own NACK already informed everyone) so the connected component
   converges on a stable, majority-witnessed abort. *)
let note_nack t st p ~nacker ~witnesses =
  p.p_nacks <- Site_id.Set.add nacker p.p_nacks;
  p.p_nack_witnesses <-
    List.fold_left
      (fun acc s -> Site_id.Set.add s acc)
      p.p_nack_witnesses witnesses;
  if (not p.p_nack_sent) && (not p.p_echo_sent) && Endpoint.is_ready st.ep
  then begin
    p.p_echo_sent <- true;
    bcast ~txn:(atxn p.p_txn) st (Nack_echo { txn = p.p_txn; nacker })
  end;
  check_decision t st p

let handle_nack t st ~txn ~origin ~sender =
  let p = part_of st ~txn ~origin in
  if not p.p_decided then note_nack t st p ~nacker:sender ~witnesses:[ sender ]

let handle_nack_echo t st ~txn ~origin ~nacker ~sender =
  let p = part_of st ~txn ~origin in
  if not p.p_decided then
    note_nack t st p ~nacker ~witnesses:[ nacker; sender ]

let deliver t st (d : payload Endpoint.delivery) =
  let sender = d.Endpoint.id.Broadcast.Msg_id.origin in
  (* Every causal delivery refreshes the implicit-acknowledgment matrix. *)
  (match d.Endpoint.vc with
  | Some vc -> st.last_vc.(sender) <- Some vc
  | None -> ());
  (match d.Endpoint.payload with
  | Write { txn; key; value } ->
    let stamp = Option.get d.Endpoint.vc in
    handle_write t st ~txn ~origin:txn.Txn_id.origin ~key ~value ~stamp
  | Commit_req { txn; participants } ->
    let stamp = Option.get d.Endpoint.vc in
    handle_commit_req t st ~txn ~origin:txn.Txn_id.origin ~stamp ~participants
  | Nack { txn } -> handle_nack t st ~txn ~origin:txn.Txn_id.origin ~sender
  | Nack_echo { txn; nacker } ->
    handle_nack_echo t st ~txn ~origin:txn.Txn_id.origin ~nacker ~sender
  | Ack -> ()
  | Snapshot _ -> ());
  scan_pending t st

let on_view_change t st view =
  Txn_id.Tbl.iter
    (fun _ p ->
      if not p.p_decided then begin
        if p.p_cr = None && not (Broadcast.View.mem view p.p_origin) then
          abort_at t st p ~reason:History.View_change
        else check_decision t st p
      end)
    st.part

(* ---------------- state transfer ---------------- *)

let export_snapshot st =
  let active =
    Txn_id.Tbl.fold
      (fun _ p acc ->
        if p.p_decided then acc
        else
          {
            ax_txn = p.p_txn;
            ax_origin = p.p_origin;
            ax_writes = Site_core.buffered_writes st.core ~txn:p.p_txn;
            ax_refused = p.p_refused;
            ax_nacks = Site_id.Set.elements p.p_nacks;
            ax_nack_witnesses = Site_id.Set.elements p.p_nack_witnesses;
            ax_echo_sent = p.p_echo_sent;
            ax_participants = Site_id.Set.elements p.p_participants;
            ax_cr = Option.map Vc.to_array p.p_cr;
          }
          :: acc)
      st.part []
  in
  Snapshot { xfer = State_transfer.export st.core; active }

let install_snapshot t st = function
  | Snapshot { xfer; active } ->
    Txn_id.Tbl.reset st.part;
    Txn_id.Tbl.reset st.orig;
    Hashtbl.reset st.lock_stamp;
    (* Understate what we have heard: delays commits, never corrupts the
       implicit-acknowledgment argument. *)
    st.last_vc <- Array.make (Array.length st.last_vc) None;
    State_transfer.import st.core xfer;
    List.iter
      (fun ax ->
        let p = part_of st ~txn:ax.ax_txn ~origin:ax.ax_origin in
        p.p_refused <- ax.ax_refused;
        p.p_nacks <- Site_id.Set.of_list ax.ax_nacks;
        p.p_nack_witnesses <- Site_id.Set.of_list ax.ax_nack_witnesses;
        p.p_echo_sent <- ax.ax_echo_sent;
        p.p_participants <- Site_id.Set.of_list ax.ax_participants;
        p.p_cr <- Option.map Vc.of_array ax.ax_cr;
        (* re-acquire only what the snapshot peer had granted: those are
           mutually conflict-free, so import order cannot matter *)
        List.iter
          (fun (key, value) ->
            Site_core.buffer_write st.core ~txn:ax.ax_txn key value;
            if not ax.ax_refused then begin
              match
                Site_core.acquire_write st.core ~txn:ax.ax_txn key
                  ~on_granted:(fun () -> ())
              with
              | Db.Lock_manager.Granted -> ()
              | Db.Lock_manager.Refused -> p.p_refused <- true
              | Db.Lock_manager.Queued -> assert false
            end)
          ax.ax_writes)
      active;
    scan_pending t st;
    (* Our silence would stall the other sites' implicit acknowledgments of
       the transactions we just imported; speak up once we are ready. *)
    (match t.config.Config.ack_delay with
    | Some delay ->
      let count = st.my_bcasts in
      ignore
        (Sim.Engine.schedule t.engine ~delay (fun () ->
             if st.my_bcasts = count && Endpoint.is_ready st.ep then
               bcast st Ack))
    | None -> ())
  | Write _ | Commit_req _ | Nack _ | Nack_echo _ | Ack ->
    invalid_arg "Causal_proto: bad snapshot payload"

(* ---------------- construction and submission ---------------- *)

let create engine config ~history =
  let group =
    Endpoint.create_group engine ~n:config.Config.n_sites
      ~latency:config.Config.latency ~classify
      ~hb_interval:config.Config.hb_interval
      ~suspect_after:config.Config.suspect_after ~flood:config.Config.flood
      ?batch:config.Config.batch ~tx_time:config.Config.tx_time
      ?loss:config.Config.loss
      ~obs:(Obs.Recorder.registry config.Config.obs)
      ~sampler:config.Config.sampler ~audit:config.Config.audit
      ~bug_causal_inversion:config.Config.bug_causal_inversion
      ~bug_total_divergence:config.Config.bug_total_divergence
      ()
  in
  let make_site site =
    {
      core =
        Site_core.create ~obs:config.Config.obs
          ~sampler:config.Config.sampler engine ~site
          ~policy:Db.Lock_manager.No_wait ~history;
      ep = (Endpoint.endpoints group).(site);
      part = Txn_id.Tbl.create 64;
      orig = Txn_id.Tbl.create 64;
      last_vc = Array.make config.Config.n_sites None;
      lock_stamp = Hashtbl.create 64;
      my_bcasts = 0;
      next_local = 0;
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
      Endpoint.set_on_view st.ep (fun view -> on_view_change t st view);
      Endpoint.set_snapshot_hooks st.ep
        ~get:(fun () -> export_snapshot st)
        ~install:(fun payload -> install_snapshot t st payload))
    t.sites;
  if Obs.Sampler.enabled config.Config.sampler then
    Array.iter
      (fun st ->
        let site = Site_core.site st.core in
        Obs.Sampler.register config.Config.sampler ~name:"proto_outstanding"
          ~labels:[ ("site", string_of_int site) ] (fun () ->
            float_of_int (Txn_id.Tbl.length st.orig)))
      t.sites;
  t

let debug_site t s =
  let st = t.sites.(s) in
  let pending =
    Txn_id.Tbl.fold
      (fun _ p acc ->
        if p.p_decided then acc
        else
          Format.asprintf "%a[cr=%b ref=%b nacks=%d ack=%b]" Txn_id.pp p.p_txn
            (p.p_cr <> None) p.p_refused (Site_id.Set.cardinal p.p_nacks)
            (implicitly_acked st p)
          :: acc)
      st.part []
  in
  let matrix =
    Array.to_list st.last_vc
    |> List.mapi (fun i v ->
           match v with
           | Some v -> Format.asprintf "%d:%a" i Vc.pp v
           | None -> Printf.sprintf "%d:-" i)
  in
  Format.asprintf "site=%d ready=%b %a queued=%d pending=[%s] matrix=[%s]" s
    (Endpoint.is_ready st.ep) Broadcast.View.pp (Endpoint.view st.ep)
    (Endpoint.pending_causal st.ep)
    (String.concat " " pending) (String.concat " " matrix)

let submit t ~origin spec ~on_done =
  let st = t.sites.(origin) in
  st.next_local <- st.next_local + 1;
  let txn = Txn_id.make ~origin ~local:st.next_local in
  History.begin_txn t.history txn ~origin;
  Obs_hooks.submit (obs t) ~now:(now t) ~site:origin txn;
  if not (Endpoint.is_ready st.ep) then begin
    (* The site is down or mid-join: reject rather than act on stale state. *)
    Obs_hooks.decide (obs t) ~now:(now t) ~site:origin txn ~committed:false;
    History.record_outcome t.history txn (History.Aborted History.View_change);
    on_done (History.Aborted History.View_change);
    txn
  end
  else begin
  let o = { o_on_done = on_done; o_self_pending = 0; o_cr_sent = false } in
  Txn_id.Tbl.add st.orig txn o;
  Obs_hooks.phase (obs t) ~now:(now t) ~site:origin txn Obs.Span.Lock_wait;
  Site_core.run_reads st.core ~txn ~keys:spec.Op.reads ~on_done:(fun results ->
      let writes = Op.write_set spec ~read_results:results in
      History.record_writes t.history txn writes;
      if writes = [] then begin
        Site_core.abort_local st.core ~txn;  (* releases read locks *)
        Obs_hooks.decide (obs t) ~now:(now t) ~site:origin txn ~committed:true;
        finish_at_origin t st txn History.Committed
      end
      else begin
        o.o_self_pending <- List.length writes;
        Obs_hooks.phase (obs t) ~now:(now t) ~site:origin txn
          Obs.Span.Broadcast;
        List.iter
          (fun (key, value) -> bcast ~txn:(atxn txn) st (Write { txn; key; value }))
          writes
        (* the commit request follows from [handle_write] after the last
           self-delivery *)
      end);
    txn
  end
