module Txn_id = Db.Txn_id
module Site_id = Net.Site_id
module History = Verify.History
module Endpoint = Broadcast.Endpoint

type outcome = Protocol_intf.outcome

let name = "reliable"

(* Tag audit-lineage sends with their originating transaction. *)
let atxn (txn : Txn_id.t) = (txn.Txn_id.origin, txn.Txn_id.local)

type active_export = {
  ax_txn : Txn_id.t;
  ax_origin : Site_id.t;
  ax_writes : (Op.key * Op.value) list;
  ax_refused : bool;
  ax_cr_seen : bool;
  ax_participants : Site_id.t list;
  ax_votes_yes : Site_id.t list;
  ax_votes_no : Site_id.t list;
  ax_no_witnesses : Site_id.t list;
  ax_echo_sent : bool;
}

type payload =
  | Write of { txn : Txn_id.t; key : Op.key; value : Op.value }
  | Commit_req of { txn : Txn_id.t; participants : Site_id.t list }
      (** the origin's view members when it requested commitment; votes are
          counted against exactly this set (minus members the decider has
          since removed from its view), so every site evaluates the same
          electorate even while views are changing *)
  | Vote of { txn : Txn_id.t; voter : Site_id.t; yes : bool; recast : bool }
      (** [recast] marks a vote re-cast after a view change (the voter threw
          its accumulated tally away, see [on_view_change]); a site that has
          already decided answers one with the outcome *)
  | No_echo of { txn : Txn_id.t; voter : Site_id.t }
      (** "I have seen [voter]'s negative vote": each site re-broadcasts the
          first negative vote it learns of (directly or via an echo), and an
          abort is finalized only once a majority of all sites is known to
          have seen one — see [check_decision] *)
  | Decision of { txn : Txn_id.t; commit : bool }
      (** cooperative termination: a site that has already decided answers a
          straggler's re-cast vote (see [on_view_change]) with the outcome,
          so a member left undecided across view changes — e.g. because a
          participant that joined after the decision can never vote — still
          terminates *)
  | Snapshot of { xfer : State_transfer.t; active : active_export list }

let classify = function
  | Write _ -> "write"
  | Commit_req _ -> "commitreq"
  | Vote _ -> "vote"
  | No_echo _ -> "vote"
  | Decision _ -> "vote"
  | Snapshot _ -> "snapshot"

(* Per-transaction participant state; every site keeps one per update
   transaction it has heard of. *)
type part_rec = {
  p_txn : Txn_id.t;
  p_origin : Site_id.t;
  mutable p_refused : bool;  (* a write of this txn was refused here *)
  mutable p_cr_seen : bool;
  mutable p_participants : Site_id.Set.t;  (* electorate; set with the cr *)
  mutable p_votes_yes : Site_id.Set.t;
  mutable p_votes_no : Site_id.Set.t;
  mutable p_no_witnesses : Site_id.Set.t;
      (* sites known to have seen a negative vote: the voters themselves
         plus every site whose echo was delivered here *)
  mutable p_echo_sent : bool;
  mutable p_decided : bool;
  mutable p_committed : bool;  (* the outcome; meaningful once decided *)
}

type origin_rec = { o_spec : Op.spec; o_on_done : outcome -> unit }

type site_state = {
  core : Site_core.t;
  ep : payload Endpoint.t;
  part : part_rec Txn_id.Tbl.t;
  orig : origin_rec Txn_id.Tbl.t;
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
        p_cr_seen = false;
        p_participants = Site_id.Set.empty;
        p_votes_yes = Site_id.Set.empty;
        p_votes_no = Site_id.Set.empty;
        p_no_witnesses = Site_id.Set.empty;
        p_echo_sent = false;
        p_decided = false;
        p_committed = false;
      }
    in
    Txn_id.Tbl.add st.part txn p;
    p

let finish_at_origin t st txn outcome =
  match Txn_id.Tbl.find_opt st.orig txn with
  | Some o ->
    Txn_id.Tbl.remove st.orig txn;
    History.record_outcome t.history txn outcome;
    o.o_on_done outcome
  | None -> ()

let abort_at t st p ~reason =
  if not p.p_decided then begin
    p.p_decided <- true;
    p.p_committed <- false;
    Site_core.abort_local st.core ~txn:p.p_txn;
    Obs_hooks.decide (obs t) ~now:(now t) ~site:(Site_core.site st.core)
      p.p_txn ~committed:false;
    finish_at_origin t st p.p_txn (History.Aborted reason)
  end

let commit_at t st p =
  if not p.p_decided then begin
    p.p_decided <- true;
    p.p_committed <- true;
    Site_core.apply_commit st.core ~txn:p.p_txn;
    Obs_hooks.decide (obs t) ~now:(now t) ~site:(Site_core.site st.core)
      p.p_txn ~committed:true;
    Obs_hooks.apply (obs t) ~now:(now t) ~site:(Site_core.site st.core) p.p_txn;
    finish_at_origin t st p.p_txn History.Committed
  end

(* Decide if possible. The electorate is the participant set the commit
   request named; positive votes covering every participant still in the
   decider's current view commit, provided no participant is known to have
   voted no. A negative vote alone must NOT finalize an abort: under a
   partition it may have reached only a minority side whose members are
   later expelled and re-initialized, while the surviving primary component
   — which never saw it — commits. An abort is therefore finalized only
   once a majority of all sites is known to have seen a negative vote
   (voters plus echoers, see [No_echo]): any future primary view intersects
   that majority in a member that retains the vote and blocks the commit,
   so the two outcomes can never split. A site that knows a negative vote
   but cannot yet prove it stable simply waits — if it is on a doomed
   minority side its state is discarded at rejoin, and its client sees the
   transaction as undecided rather than wrongly aborted. *)
let majority t = (t.config.Config.n_sites / 2) + 1

let check_decision t st p =
  if not p.p_decided && p.p_cr_seen then begin
    if Site_id.Set.cardinal p.p_no_witnesses >= majority t then
      abort_at t st p ~reason:History.Write_conflict
    else if
      Site_id.Set.is_empty (Site_id.Set.inter p.p_votes_no p.p_participants)
      && Endpoint.is_primary st.ep
    then begin
      let view = Endpoint.view st.ep in
      let electorate =
        Site_id.Set.filter
          (fun m -> Broadcast.View.mem view m)
          p.p_participants
      in
      if
        (not (Site_id.Set.is_empty electorate))
        && Site_id.Set.subset electorate p.p_votes_yes
      then commit_at t st p
    end
  end

let cast_vote ?(recast = false) st p =
  let yes = not p.p_refused in
  ignore
    (Endpoint.broadcast ~txn:(atxn p.p_txn) st.ep `Reliable
       (Vote { txn = p.p_txn; voter = Site_core.site st.core; yes; recast }))

let handle_write t st ~txn ~origin ~key ~value =
  let p = part_of st ~txn ~origin in
  if not p.p_decided then begin
    Site_core.buffer_write st.core ~txn key value;
    match Site_core.acquire_write st.core ~txn key ~on_granted:(fun () -> ()) with
    | Db.Lock_manager.Granted -> ()
    | Db.Lock_manager.Refused -> p.p_refused <- true
    | Db.Lock_manager.Queued -> assert false (* No_wait policy *)
  end;
  ignore t

let handle_commit_req t st ~txn ~origin ~participants =
  let p = part_of st ~txn ~origin in
  if not p.p_decided then begin
    p.p_cr_seen <- true;
    p.p_participants <- Site_id.Set.of_list participants;
    (* The origin's broadcast phase ends when its own commit request comes
       back; from here it is collecting votes. *)
    if Site_core.site st.core = txn.Txn_id.origin then
      Obs_hooks.phase (obs t) ~now:(now t) ~site:(Site_core.site st.core) txn
        Obs.Span.Vote_collect;
    cast_vote st p;
    check_decision t st p
  end

(* Record knowledge of [voter]'s negative vote, with [witnesses] the sites
   newly known to share that knowledge, and echo it once so the whole
   connected component converges on a stable (majority-witnessed) abort. *)
let note_no t st p ~voter ~witnesses =
  p.p_votes_no <- Site_id.Set.add voter p.p_votes_no;
  p.p_no_witnesses <-
    List.fold_left
      (fun acc s -> Site_id.Set.add s acc)
      p.p_no_witnesses witnesses;
  if (not p.p_echo_sent) && Endpoint.is_ready st.ep then begin
    p.p_echo_sent <- true;
    ignore
      (Endpoint.broadcast ~txn:(atxn p.p_txn) st.ep `Reliable
         (No_echo { txn = p.p_txn; voter }))
  end;
  check_decision t st p

let handle_vote t st ~txn ~origin ~voter ~yes ~recast =
  let p = part_of st ~txn ~origin in
  if p.p_decided then begin
    (* Cooperative termination: the voter is still undecided (it threw its
       tally away at a view change) and we know the outcome — answer it.
       Ordinary late votes for decided transactions stay ignored, so the
       no-fault wire traffic is exactly the paper's. *)
    if recast && voter <> Site_core.site st.core && Endpoint.is_ready st.ep
    then
      ignore
        (Endpoint.broadcast ~txn:(atxn p.p_txn) st.ep `Reliable
           (Decision { txn = p.p_txn; commit = p.p_committed }))
  end
  else if yes then begin
    p.p_votes_yes <- Site_id.Set.add voter p.p_votes_yes;
    check_decision t st p
  end
  else note_no t st p ~voter ~witnesses:[ voter ]

(* Adopt a finalized outcome from a peer that already decided. Decisions
   are irrevocable and never split (see [check_decision]), so adopting one
   is safe; the [p_cr_seen] guard keeps a straggling decision for a
   transaction this site never processed — e.g. one that predates its
   join, whose effects arrived inside the state-transfer snapshot — from
   firing the commit hooks twice. *)
let handle_decision t st ~txn ~origin ~commit =
  let p = part_of st ~txn ~origin in
  if (not p.p_decided) && p.p_cr_seen then
    if commit then commit_at t st p
    else abort_at t st p ~reason:History.Write_conflict

let handle_no_echo t st ~txn ~origin ~voter ~echoer =
  let p = part_of st ~txn ~origin in
  if not p.p_decided then note_no t st p ~voter ~witnesses:[ voter; echoer ]

let deliver t st (d : payload Endpoint.delivery) =
  let origin = d.Endpoint.id.Broadcast.Msg_id.origin in
  match d.Endpoint.payload with
  | Write { txn; key; value } -> handle_write t st ~txn ~origin ~key ~value
  | Commit_req { txn; participants } ->
    handle_commit_req t st ~txn ~origin ~participants
  | Vote { txn; voter; yes; recast } ->
    (* the txn's origin is not the vote's broadcast origin *)
    handle_vote t st ~txn ~origin:txn.Txn_id.origin ~voter ~yes ~recast
  | No_echo { txn; voter } ->
    handle_no_echo t st ~txn ~origin:txn.Txn_id.origin ~voter ~echoer:origin
  | Decision { txn; commit } ->
    handle_decision t st ~txn ~origin:txn.Txn_id.origin ~commit
  | Snapshot _ -> ()  (* snapshots ride only inside join commits *)

(* A view change re-evaluates every pending transaction: the vote quorum
   shrinks with the view, and transactions whose origin left before their
   commit request arrived can never terminate — abort them.

   Positive votes do not survive the change: they were cast against the old
   membership, and counting them in the shrunken electorate breaks the
   abort/commit split argument. Concretely: a participant's negative vote
   can still be in flight (under batching, parked in an open frame for up
   to [max_delay]) when a partition cuts a site off; if the cut-off site
   then suspects the no-voter's side first, it transiently holds a
   "majority" view of exactly the sites whose yes votes it cached and
   commits — while the witness-majority side aborts. Requiring every
   member to re-cast in the new view means a decision consults members
   that retained the negative vote, which is what the stability argument
   in [check_decision] relies on. Negative-vote knowledge is sticky by
   design and is kept. *)
let on_view_change t st view =
  Txn_id.Tbl.iter
    (fun _ p ->
      if not p.p_decided then begin
        if (not p.p_cr_seen) && not (Broadcast.View.mem view p.p_origin) then
          abort_at t st p ~reason:History.View_change
        else begin
          if p.p_cr_seen then begin
            p.p_votes_yes <- Site_id.Set.empty;
            cast_vote ~recast:true st p
          end;
          check_decision t st p
        end
      end)
    st.part

(* ---------------- state transfer ---------------- *)

let export_snapshot t st =
  ignore t;
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
            ax_cr_seen = p.p_cr_seen;
            ax_participants = Site_id.Set.elements p.p_participants;
            ax_votes_yes = Site_id.Set.elements p.p_votes_yes;
            ax_votes_no = Site_id.Set.elements p.p_votes_no;
            ax_no_witnesses = Site_id.Set.elements p.p_no_witnesses;
            ax_echo_sent = p.p_echo_sent;
          }
          :: acc)
      st.part []
  in
  Snapshot { xfer = State_transfer.export st.core; active }

let install_snapshot t st = function
  | Snapshot { xfer; active } ->
    Txn_id.Tbl.reset st.part;
    Txn_id.Tbl.reset st.orig;
    State_transfer.import st.core xfer;
    List.iter
      (fun ax ->
        let p = part_of st ~txn:ax.ax_txn ~origin:ax.ax_origin in
        p.p_refused <- ax.ax_refused;
        p.p_cr_seen <- ax.ax_cr_seen;
        p.p_participants <- Site_id.Set.of_list ax.ax_participants;
        p.p_votes_yes <- Site_id.Set.of_list ax.ax_votes_yes;
        p.p_votes_no <- Site_id.Set.of_list ax.ax_votes_no;
        p.p_no_witnesses <- Site_id.Set.of_list ax.ax_no_witnesses;
        p.p_echo_sent <- ax.ax_echo_sent;
        (* Re-acquire locks only for transactions the snapshot peer had
           granted: those are mutually conflict-free, so re-acquisition
           cannot depend on import order. Refused ones keep their flag. *)
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
          ax.ax_writes;
        (* Sites that already count us in their view are waiting for our
           vote on any imported transaction whose commit request has been
           seen — cast it or they block forever. Deferred one event: the
           endpoint finishes its join installation after this hook runs. *)
        if p.p_cr_seen then
          ignore
            (Sim.Engine.schedule t.engine ~delay:Sim.Time.zero (fun () ->
                 if Endpoint.is_ready st.ep && not p.p_decided then
                   cast_vote ~recast:true st p));
        check_decision t st p)
      active
  | Write _ | Commit_req _ | Vote _ | No_echo _ | Decision _ ->
    invalid_arg "Reliable_proto: bad snapshot payload"

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
      ~bug_total_divergence:config.Config.bug_total_divergence ()
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
        ~get:(fun () -> export_snapshot t st)
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
  Txn_id.Tbl.add st.orig txn { o_spec = spec; o_on_done = on_done };
  Obs_hooks.phase (obs t) ~now:(now t) ~site:origin txn Obs.Span.Lock_wait;
  Site_core.run_reads st.core ~txn ~keys:spec.Op.reads ~on_done:(fun results ->
      let writes = Op.write_set spec ~read_results:results in
      History.record_writes t.history txn writes;
      if writes = [] then begin
        (* Read-only: local commit, no broadcast, never aborted. *)
        Site_core.abort_local st.core ~txn;  (* releases read locks *)
        Obs_hooks.decide (obs t) ~now:(now t) ~site:origin txn ~committed:true;
        finish_at_origin t st txn History.Committed
      end
      else begin
        Obs_hooks.phase (obs t) ~now:(now t) ~site:origin txn
          Obs.Span.Broadcast;
        List.iter
          (fun (key, value) ->
            ignore
              (Endpoint.broadcast ~txn:(atxn txn) st.ep `Reliable
                 (Write { txn; key; value })))
          writes;
        let participants =
          Broadcast.View.members_list (Endpoint.view st.ep)
        in
        ignore
          (Endpoint.broadcast ~txn:(atxn txn) st.ep `Reliable
             (Commit_req { txn; participants }))
      end);
    txn
  end
