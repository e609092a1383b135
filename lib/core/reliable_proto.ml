module Txn_id = Db.Txn_id
module Site_id = Net.Site_id
module History = Verify.History
module Endpoint = Broadcast.Endpoint
module Shell = Bcast_shell

let name = "reliable"

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

type payload =
  | Write of { txn : Txn_id.t; key : Op.key; value : Op.value }
  | Commit_req of { txn : Txn_id.t; participants : Site_id.Set.t }
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
  | Snapshot of {
      xfer : State_transfer.t;
      active : (part_rec * (Op.key * Op.value) list) list;
          (** a copy of each undecided transaction's state, with its
              buffered writes *)
    }

let classify = function
  | Write _ -> "write"
  | Commit_req _ -> "commitreq"
  | Vote _ -> "vote"
  | No_echo _ -> "vote"
  | Decision _ -> "vote"
  | Snapshot _ -> "snapshot"

type t = (payload, unit, part_rec Txn_id.Tbl.t) Shell.t
type site = (payload, unit, part_rec Txn_id.Tbl.t) Shell.site

include Shell.Ops

let part_of (st : site) ~txn ~origin =
  match Txn_id.Tbl.find_opt st.proto txn with
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
    Txn_id.Tbl.add st.proto txn p;
    p

let bcast (st : site) txn payload =
  ignore (Endpoint.broadcast ~txn:(Shell.atxn txn) st.ep `Reliable payload)

let abort_at t (st : site) p ~reason =
  if not p.p_decided then begin
    p.p_decided <- true;
    p.p_committed <- false;
    Site_core.abort_local st.core ~txn:p.p_txn;
    Shell.decide t st p.p_txn (History.Aborted reason)
  end

let commit_at t (st : site) p =
  if not p.p_decided then begin
    p.p_decided <- true;
    p.p_committed <- true;
    Site_core.apply_commit st.core ~txn:p.p_txn;
    Shell.decide t st p.p_txn History.Committed
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
let check_decision t (st : site) p =
  if not p.p_decided && p.p_cr_seen then begin
    if Site_id.Set.cardinal p.p_no_witnesses >= Shell.majority t then
      abort_at t st p ~reason:History.Write_conflict
    else if
      Site_id.Set.disjoint p.p_votes_no p.p_participants
      && Endpoint.is_primary st.ep
    then begin
      (* the electorate is the participants still in the view: it must be
         nonempty and have voted yes to the last member *)
      let view = Endpoint.view st.ep in
      let in_view m = Broadcast.View.mem view m in
      if
        Site_id.Set.exists in_view p.p_participants
        && Site_id.Set.for_all
             (fun m -> (not (in_view m)) || Site_id.Set.mem m p.p_votes_yes)
             p.p_participants
      then commit_at t st p
    end
  end

let cast_vote ?(recast = false) (st : site) p =
  let yes = not p.p_refused in
  bcast st p.p_txn
    (Vote { txn = p.p_txn; voter = Site_core.site st.core; yes; recast })

let handle_write st ~txn ~origin ~key ~value =
  let p = part_of st ~txn ~origin in
  if not p.p_decided then begin
    Site_core.buffer_write st.core ~txn key value;
    match Site_core.acquire_write st.core ~txn key ~on_granted:(fun () -> ()) with
    | Db.Lock_manager.Granted -> ()
    | Db.Lock_manager.Refused -> p.p_refused <- true
    | Db.Lock_manager.Queued -> assert false (* No_wait policy *)
  end

let handle_commit_req t (st : site) ~txn ~origin ~participants =
  let p = part_of st ~txn ~origin in
  if not p.p_decided then begin
    p.p_cr_seen <- true;
    p.p_participants <- participants;
    (* The origin's broadcast phase ends when its own commit request comes
       back; from here it is collecting votes. *)
    if Site_core.site st.core = txn.Txn_id.origin then
      Shell.phase t st txn Obs.Span.Vote_collect;
    cast_vote st p;
    check_decision t st p
  end

(* Record knowledge of [voter]'s negative vote, with [witnesses] the sites
   newly known to share that knowledge, and echo it once so the whole
   connected component converges on a stable (majority-witnessed) abort. *)
let note_no t (st : site) p ~voter ~witnesses =
  p.p_votes_no <- Site_id.Set.add voter p.p_votes_no;
  p.p_no_witnesses <-
    List.fold_left
      (fun acc s -> Site_id.Set.add s acc)
      p.p_no_witnesses witnesses;
  if (not p.p_echo_sent) && Endpoint.is_ready st.ep then begin
    p.p_echo_sent <- true;
    bcast st p.p_txn (No_echo { txn = p.p_txn; voter })
  end;
  check_decision t st p

let handle_vote t (st : site) ~txn ~origin ~voter ~yes ~recast =
  let p = part_of st ~txn ~origin in
  if p.p_decided then begin
    (* Cooperative termination: the voter is still undecided (it threw its
       tally away at a view change) and we know the outcome — answer it.
       Ordinary late votes for decided transactions stay ignored, so the
       no-fault wire traffic is exactly the paper's. *)
    if recast && voter <> Site_core.site st.core && Endpoint.is_ready st.ep
    then bcast st p.p_txn (Decision { txn = p.p_txn; commit = p.p_committed })
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
  | Write { txn; key; value } -> handle_write st ~txn ~origin ~key ~value
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
let on_view_change t (st : site) view =
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
    st.proto

(* ---------------- state transfer ---------------- *)

let export_snapshot (st : site) =
  let active =
    Txn_id.Tbl.fold
      (fun _ p acc ->
        if p.p_decided then acc
        else
          (* a copy: the live record keeps changing after the export *)
          let frozen = { p with p_txn = p.p_txn } in
          (frozen, Site_core.buffered_writes st.core ~txn:p.p_txn) :: acc)
      st.proto []
  in
  Snapshot { xfer = State_transfer.export st.core; active }

let install_snapshot t (st : site) = function
  | Snapshot { xfer; active } ->
    Txn_id.Tbl.reset st.proto;
    State_transfer.import st.core xfer;
    List.iter
      (fun (ax, writes) ->
        let refused =
          Shell.relock st ~txn:ax.p_txn ~refused:ax.p_refused writes
        in
        let p = { ax with p_refused = refused } in
        Txn_id.Tbl.add st.proto p.p_txn p;
        (* Sites that already count us in their view are waiting for our
           vote on any imported transaction whose commit request has been
           seen — cast it or they block forever. Deferred one event: the
           endpoint finishes its join installation after this hook runs. *)
        if p.p_cr_seen then
          ignore
            (Sim.Engine.schedule t.Shell.engine ~delay:Sim.Time.zero (fun () ->
                 if Endpoint.is_ready st.ep && not p.p_decided then
                   cast_vote ~recast:true st p));
        check_decision t st p)
      active
  | Write _ | Commit_req _ | Vote _ | No_echo _ | Decision _ ->
    invalid_arg "Reliable_proto: bad snapshot payload"

(* ---------------- construction and submission ---------------- *)

let create engine config ~history =
  Shell.create engine config ~history ~classify
    ~proto:(fun () -> Txn_id.Tbl.create 64)
    ~deliver ~on_view:on_view_change ~export:export_snapshot
    ~install:install_snapshot

let submit t ~origin spec ~on_done =
  Shell.submit t ~origin ~on_done () (fun st txn ->
      Shell.locking_reads t st txn spec ~broadcast:(fun writes ->
          List.iter
            (fun (key, value) -> bcast st txn (Write { txn; key; value }))
            writes;
          let participants = (Endpoint.view st.ep).Broadcast.View.members in
          bcast st txn (Commit_req { txn; participants })))
