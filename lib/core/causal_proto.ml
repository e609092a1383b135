module Txn_id = Db.Txn_id
module Site_id = Net.Site_id
module History = Verify.History
module Endpoint = Broadcast.Endpoint
module Vc = Lclock.Vector_clock
module Shell = Bcast_shell

(* Keyed by [Txn_id.key], which [Int.compare] orders as [Txn_id.compare]. *)
module Txn_map = Map.Make (Int)

let name = "causal"

(* What a record's last commit check found it waiting for. *)
type wait =
  | Unchecked  (* created since the last check *)
  | Ack_from of Site_id.t
      (* the first participant whose implicit acknowledgment is missing:
         until a delivery from it, the check must fail again *)
  | Event
      (* no commit request yet, a participant's NACK short of a majority of
         witnesses, a local refusal, or a minority view: only a handler for
         this transaction, a view change or a snapshot install can change
         that *)

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
  mutable p_wait : wait;  (* undecided records only *)
}

type payload =
  | Write of { txn : Txn_id.t; key : Op.key; value : Op.value }
  | Commit_req of { txn : Txn_id.t; participants : Site_id.Set.t }
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
  | Snapshot of {
      xfer : State_transfer.t;
      active : (part_rec * (Op.key * Op.value) list) list;
          (** a copy of each undecided transaction's state, with its
              buffered writes *)
    }

let classify = function
  | Write _ -> "write"
  | Commit_req _ -> "commitreq"
  | Nack _ -> "nack"
  | Nack_echo _ -> "nack"
  | Ack -> "ack"
  | Snapshot _ -> "snapshot"

type origin_state = {
  mutable self_pending : int;
      (** own writes not yet self-delivered; the commit request is deferred
          until this reaches 0, so an origin-side refusal NACKs {e before}
          the commit request in the origin's causal stream — the ordering
          the protocol's safety argument needs *)
  mutable cr_sent : bool;
}

(* [part] and the maps are keyed by [Txn_id.key]. *)
type site_state = {
  part : part_rec Sim.Int_table.t;
      (* every transaction this site has seen, decided ones included: a
         late NACK or echo must find its decided record, not re-create it *)
  mutable undecided : part_rec Txn_map.t;
      (* the records of [part] not yet decided: all a full check visits *)
  waiting : part_rec Txn_map.t array;
      (* per site [r]: the undecided records whose [p_wait] is [Ack_from r] *)
  mutable fresh : part_rec Txn_map.t;  (* those whose [p_wait] is [Unchecked] *)
  (* implicit-acknowledgment machinery *)
  mutable last_vc : Vc.t option array;  (* per sender: stamp of last delivery *)
  lock_stamp : (Txn_id.t * Vc.t) Sim.Int_table.t;
      (* per key: the X holder's write stamp *)
  mutable my_bcasts : int;  (* causal messages this site has sent *)
}

type t = (payload, origin_state, site_state) Shell.t
type site = (payload, origin_state, site_state) Shell.site

include Shell.Ops

let fresh_part ~txn ~origin =
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
    p_wait = Unchecked;
  }

(* The "no entry" values of [part] and [lock_stamp]; compared physically. *)
let no_part = fresh_part ~txn:(Txn_id.make ~origin:0 ~local:0) ~origin:0
let no_stamp = (no_part.p_txn, Vc.create ~n:1)

let find_part (st : site) txn = Sim.Int_table.find st.proto.part (Txn_id.key txn)

(* Index a new undecided record. *)
let add_part (st : site) p =
  let k = Txn_id.key p.p_txn in
  Sim.Int_table.replace st.proto.part k p;
  st.proto.undecided <- Txn_map.add k p st.proto.undecided;
  st.proto.fresh <- Txn_map.add k p st.proto.fresh

let part_of (st : site) ~txn ~origin =
  let p = find_part st txn in
  if p != no_part then p
  else begin
    let p = fresh_part ~txn ~origin in
    add_part st p;
    p
  end

let bcast ?txn (st : site) payload =
  st.proto.my_bcasts <- st.proto.my_bcasts + 1;
  ignore (Endpoint.broadcast ?txn st.ep `Causal payload)

(* Idle-acknowledgment option: if this site stays silent, its silence
   stalls everyone else's implicit acknowledgments. *)
let schedule_idle_ack t (st : site) =
  match t.Shell.config.Config.ack_delay with
  | Some delay ->
    let count = st.proto.my_bcasts in
    ignore
      (Sim.Engine.schedule t.Shell.engine ~delay (fun () ->
           if st.proto.my_bcasts = count && Endpoint.is_ready st.ep then
             bcast st Ack))
  | None -> ()

let drop_lock_stamps (st : site) txn =
  List.iter
    (fun k ->
      let ((holder, _) as held) = Sim.Int_table.find st.proto.lock_stamp k in
      if held != no_stamp && Txn_id.equal holder txn then
        Sim.Int_table.remove st.proto.lock_stamp k)
    (Site_core.buffered_keys st.core ~txn)

(* Take [p] out of the index its [p_wait] names. *)
let unfile (st : site) p =
  match p.p_wait with
  | Unchecked ->
    st.proto.fresh <- Txn_map.remove (Txn_id.key p.p_txn) st.proto.fresh
  | Ack_from r ->
    st.proto.waiting.(r) <-
      Txn_map.remove (Txn_id.key p.p_txn) st.proto.waiting.(r)
  | Event -> ()

let set_wait (st : site) p wait =
  let unchanged =
    match p.p_wait, wait with
    | Ack_from r, Ack_from r' -> Site_id.equal r r'
    | Event, Event -> true
    | (Unchecked | Ack_from _ | Event), _ -> false
  in
  if not unchanged then begin
    unfile st p;
    p.p_wait <- wait;
    match wait with
    | Ack_from r ->
      st.proto.waiting.(r) <-
        Txn_map.add (Txn_id.key p.p_txn) p st.proto.waiting.(r)
    | Unchecked ->
      st.proto.fresh <- Txn_map.add (Txn_id.key p.p_txn) p st.proto.fresh
    | Event -> ()
  end

let mark_decided (st : site) p =
  unfile st p;
  p.p_decided <- true;
  st.proto.undecided <- Txn_map.remove (Txn_id.key p.p_txn) st.proto.undecided

let abort_at t st p ~reason =
  if not p.p_decided then begin
    mark_decided st p;
    drop_lock_stamps st p.p_txn;
    Site_core.abort_local st.core ~txn:p.p_txn;
    Shell.decide t st p.p_txn (History.Aborted reason)
  end

let commit_at t st p =
  if not p.p_decided then begin
    mark_decided st p;
    drop_lock_stamps st p.p_txn;
    Site_core.apply_commit st.core ~txn:p.p_txn;
    Shell.decide t st p.p_txn History.Committed
  end

(* The implicit-acknowledgment test: the first participant still in the
   current view not yet heard from causally after the commit request, if
   any. *)
let missing_ack (st : site) p vcr =
  let o = p.p_origin in
  let me = Site_core.site st.core in
  let need = Vc.get vcr o in
  let view = Endpoint.view st.ep in
  let missing = ref None in
  ignore
    (Site_id.Set.exists
       (fun r ->
         let acked =
           Site_id.equal r o || Site_id.equal r me
           || (not (Broadcast.View.mem view r))
           ||
           match st.proto.last_vc.(r) with
           | Some v -> Vc.get v o >= need
           | None -> false
         in
         if not acked then missing := Some r;
         not acked)
       p.p_participants);
  !missing

type verdict = Commit | Abort | Wait of wait

(* The commit check of an undecided record, without its effects. *)
let verdict t (st : site) p =
  if Site_id.Set.mem p.p_origin p.p_nacks then
    (* The origin NACKed its own transaction (a refusal during its write
       phase): no commit request will ever follow — no site can ever commit
       it, so this abort is authoritative without a stability proof. *)
    Abort
  else
    match p.p_cr with
    | None -> Wait Event
    | Some vcr ->
      let me = Site_core.site st.core in
      (* A participant's NACK blocks the commit immediately but finalizes
         the abort only once a majority of all sites is known to have seen
         a NACK (nackers plus echoers): under a partition a NACK may reach
         only a minority side that is later expelled and re-initialized,
         while the surviving primary component — which never saw it —
         commits. The majority-witness rule makes that split impossible
         (any future primary view intersects the witnesses); a site that
         cannot prove stability waits, and a doomed minority origin leaves
         its client with an undecided transaction rather than a wrong
         abort. *)
      if not (Site_id.Set.disjoint p.p_nacks p.p_participants) then
        if Site_id.Set.cardinal p.p_nack_witnesses >= Shell.majority t then Abort
        else Wait Event
      (* A local refusal matters only if we are a participant; a joiner
         whose replayed interleaving refused a write that the electorate
         accepted still applies the committed write set. *)
      else if
        (p.p_refused && Site_id.Set.mem me p.p_participants)
        || not (Endpoint.is_primary st.ep)
      then Wait Event
      else
        match missing_ack st p vcr with
        | Some r -> Wait (Ack_from r)
        | None -> Commit

let check_decision t (st : site) p =
  if not p.p_decided then
    match verdict t st p with
    | Abort -> abort_at t st p ~reason:History.Write_conflict
    | Commit -> commit_at t st p
    | Wait wait -> set_wait st p wait

(* Both scans iterate their maps as they stand at scan start: a record
   decided during the scan is still visited, and [check_decision] skips
   it. The full scan follows a snapshot install. *)
let scan_pending t (st : site) =
  Txn_map.iter (fun _ p -> check_decision t st p) st.proto.undecided

(* After a delivery from [sender], only two kinds of record can have
   become decidable: those whose missing acknowledgment was [sender]'s
   (the delivery may carry it), and those never checked. Every other
   record waits on another site's delivery, on a handler for its own
   transaction (which runs its check), or on a view change (which checks
   every record). Decisions keep [Txn_id] order, as in a full scan. *)
let scan_after_delivery t (st : site) sender =
  let due = st.proto.waiting.(sender) in
  let due =
    if Txn_map.is_empty st.proto.fresh then due
    else Txn_map.union (fun _ p _ -> Some p) due st.proto.fresh
  in
  Txn_map.iter (fun _ p -> check_decision t st p) due

let decidable t s =
  let st = t.Shell.sites.(s) in
  if not (Endpoint.is_ready st.ep) then []
  else
    Txn_map.fold
      (fun _ p acc ->
        match verdict t st p with
        | Wait _ -> acc
        | Commit | Abort -> p.p_txn :: acc)
      st.proto.undecided []
    |> List.rev

let send_nack st p =
  if not p.p_nack_sent then begin
    p.p_nack_sent <- true;
    bcast ~txn:(Shell.atxn p.p_txn) st (Nack { txn = p.p_txn })
  end

let handle_write t (st : site) ~txn ~origin ~key ~value ~stamp =
  let p = part_of st ~txn ~origin in
  if not p.p_decided then begin
    Site_core.buffer_write st.core ~txn key value;
    match Site_core.acquire_write st.core ~txn key ~on_granted:(fun () -> ()) with
    | Db.Lock_manager.Granted ->
      Sim.Int_table.replace st.proto.lock_stamp key (txn, stamp)
    | Db.Lock_manager.Refused ->
      p.p_refused <- true;
      send_nack st p;
      (* Early conflict detection: if the conflicting writes are concurrent
         and the holder's commit request has not reached us, no site can
         have committed the holder yet — NACKing it too is safe and saves
         its remaining work (the paper's early abort of both). *)
      if t.Shell.config.Config.early_ww_abort then begin
        let ((holder, holder_stamp) as held) =
          Sim.Int_table.find st.proto.lock_stamp key
        in
        if held != no_stamp && Vc.concurrent holder_stamp stamp then begin
          let hp = find_part st holder in
          if hp != no_part && hp.p_cr = None && not hp.p_decided then
            send_nack st hp
        end
      end
    | Db.Lock_manager.Queued -> assert false (* No_wait policy *)
  end;
  (* Origin side: once all own writes have self-delivered, broadcast the
     commit request — unless one was refused, in which case the NACK already
     sent must stay ahead of any commit request. *)
  if Site_id.equal (Site_core.site st.core) txn.Txn_id.origin then begin
    match Sim.Int_table.find st.orig (Txn_id.key txn) with
    | Some { state = o; _ } when not o.cr_sent ->
      o.self_pending <- o.self_pending - 1;
      if o.self_pending = 0 && not p.p_refused then begin
        o.cr_sent <- true;
        let participants = (Endpoint.view st.ep).Broadcast.View.members in
        bcast ~txn:(Shell.atxn txn) st (Commit_req { txn; participants })
      end
    | Some _ | None -> ()
  end

let handle_commit_req t (st : site) ~txn ~origin ~stamp ~participants =
  let p = part_of st ~txn ~origin in
  if not p.p_decided then begin
    p.p_cr <- Some stamp;
    p.p_participants <- participants;
    (* The origin's broadcast phase ends when its own commit request comes
       back; from here it is waiting for implicit acknowledgments. *)
    if Site_core.site st.core = txn.Txn_id.origin then
      Shell.phase t st txn Obs.Span.Vote_collect;
    if p.p_refused then send_nack st p;
    check_decision t st p;
    (* Even if we have already decided it ourselves, the others still need
       to hear from us causally after the commit request. *)
    schedule_idle_ack t st
  end

(* Record knowledge of [nacker]'s NACK, with [witnesses] the sites newly
   known to share that knowledge, and echo it once (a site that broadcast
   its own NACK already informed everyone) so the connected component
   converges on a stable, majority-witnessed abort. *)
let note_nack t (st : site) p ~nacker ~witnesses =
  p.p_nacks <- Site_id.Set.add nacker p.p_nacks;
  p.p_nack_witnesses <-
    List.fold_left
      (fun acc s -> Site_id.Set.add s acc)
      p.p_nack_witnesses witnesses;
  if (not p.p_nack_sent) && (not p.p_echo_sent) && Endpoint.is_ready st.ep
  then begin
    p.p_echo_sent <- true;
    bcast ~txn:(Shell.atxn p.p_txn) st (Nack_echo { txn = p.p_txn; nacker })
  end;
  check_decision t st p

let handle_nack t st ~txn ~origin ~sender =
  let p = part_of st ~txn ~origin in
  if not p.p_decided then note_nack t st p ~nacker:sender ~witnesses:[ sender ]

let handle_nack_echo t st ~txn ~origin ~nacker ~sender =
  let p = part_of st ~txn ~origin in
  if not p.p_decided then
    note_nack t st p ~nacker ~witnesses:[ nacker; sender ]

let deliver t (st : site) (d : payload Endpoint.delivery) =
  let sender = d.Endpoint.id.Broadcast.Msg_id.origin in
  (* Every causal delivery refreshes the implicit-acknowledgment matrix. *)
  (match d.Endpoint.vc with
  | Some vc -> st.proto.last_vc.(sender) <- Some vc
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
  scan_after_delivery t st sender

let on_view_change t (st : site) view =
  Txn_map.iter
    (fun _ p ->
      if not p.p_decided then begin
        if p.p_cr = None && not (Broadcast.View.mem view p.p_origin) then
          abort_at t st p ~reason:History.View_change
        else check_decision t st p
      end)
    st.proto.undecided

(* ---------------- state transfer ---------------- *)

let export_snapshot (st : site) =
  let active =
    Txn_map.fold
      (fun _ p acc ->
        (* a copy: the live record keeps changing after the export *)
        let frozen = { p with p_txn = p.p_txn } in
        (frozen, Site_core.buffered_writes st.core ~txn:p.p_txn) :: acc)
      st.proto.undecided []
  in
  Snapshot { xfer = State_transfer.export st.core; active }

let install_snapshot t (st : site) = function
  | Snapshot { xfer; active } ->
    Sim.Int_table.clear st.proto.part;
    st.proto.undecided <- Txn_map.empty;
    Array.fill st.proto.waiting 0 (Array.length st.proto.waiting) Txn_map.empty;
    st.proto.fresh <- Txn_map.empty;
    Sim.Int_table.clear st.proto.lock_stamp;
    (* Understate what we have heard: delays commits, never corrupts the
       implicit-acknowledgment argument. *)
    st.proto.last_vc <- Array.make (Array.length st.proto.last_vc) None;
    State_transfer.import st.core xfer;
    List.iter
      (fun (ax, writes) ->
        let refused =
          Shell.relock st ~txn:ax.p_txn ~refused:ax.p_refused writes
        in
        (* the joiner has sent no NACK of its own yet *)
        let p =
          { ax with p_refused = refused; p_nack_sent = false; p_wait = Unchecked }
        in
        add_part st p)
      active;
    scan_pending t st;
    (* the other sites wait on us for the transactions just imported *)
    schedule_idle_ack t st
  | Write _ | Commit_req _ | Nack _ | Nack_echo _ | Ack ->
    invalid_arg "Causal_proto: bad snapshot payload"

(* ---------------- construction and submission ---------------- *)

let create engine config ~history =
  let t =
    Shell.create engine config ~history ~classify
      ~proto:(fun () ->
        {
          part = Sim.Int_table.create ~vacant:no_part;
          undecided = Txn_map.empty;
          waiting = Array.make config.Config.n_sites Txn_map.empty;
          fresh = Txn_map.empty;
          last_vc = Array.make config.Config.n_sites None;
          lock_stamp = Sim.Int_table.create ~vacant:no_stamp;
          my_bcasts = 0;
        })
      ~deliver ~on_view:on_view_change ~export:export_snapshot
      ~install:install_snapshot
  in
  let sampler = config.Config.sampler in
  if Obs.Sampler.enabled sampler then
    Array.iter
      (fun (st : site) ->
        Obs.Sampler.register sampler ~name:"causal_undecided"
          ~labels:[ ("site", string_of_int (Site_core.site st.core)) ]
          (fun () -> float_of_int (Txn_map.cardinal st.proto.undecided)))
      t.Shell.sites;
  t

let submit t ~origin spec ~on_done =
  let o = { self_pending = 0; cr_sent = false } in
  Shell.submit t ~origin ~on_done o (fun st txn ->
      Shell.locking_reads t st txn spec ~broadcast:(fun writes ->
          o.self_pending <- List.length writes;
          List.iter
            (fun (key, value) ->
              bcast ~txn:(Shell.atxn txn) st (Write { txn; key; value }))
            writes
          (* the commit request follows from [handle_write] after the last
             self-delivery *)))
