module Vc = Lclock.Vector_clock
module Site_id = Net.Site_id

type cls = [ `Reliable | `Causal | `Total ]

type batch = { max_msgs : int; max_delay : Sim.Time.t }

type 'a delivery = {
  id : Msg_id.t;
  vc : Vc.t option;
  global_seq : int option;
  payload : 'a;
}

type stamp = { msg_id : Msg_id.t; msg_vc : Vc.t option }

type 'a snapshot = {
  snap_cut : int array;  (* delivered causal counts per origin *)
  snap_r_expected : (Site_id.t * int) list;
  snap_next_total : int;
  snap_orders : (Msg_id.t * int) list;
  snap_view_id : int;
  snap_members : Site_id.t list;
  snap_coordinator : Site_id.t;
  snap_app : 'a;
}

(* One stamped application message, built once by its sender. The App or
   Frame datagram carries it, the hold-back buffers queue it, and every
   receiver's recent log keeps this same record: a delivery copies
   nothing. *)
type 'a msg = { m_id : Msg_id.t; m_vc : Vc.t option; m_payload : 'a app_payload }

and 'a join_commit = {
  jc_joiner : Site_id.t;
  jc_r_base : int;
  jc_c_base : int;
  jc_window : 'a msg list;  (* joiner-origin messages some members miss *)
  jc_snapshot : 'a snapshot;
}

(* Payloads carried by the ordered classes: user data, or the join-commit
   control message (which must travel causally ordered like user data). *)
and 'a app_payload = User of 'a | Join_commit of 'a join_commit

type 'a wire =
  | App of { msg : 'a msg; relayed : bool }
  | Frame of { frame : int; msgs : 'a msg list }
      (* a sender's coalesced broadcasts: one datagram, many stamped
         messages, delivered back-to-back in sender order *)
  | Order of { id : Msg_id.t; global_seq : int }
  | Orders of { frame : int; assignments : (Msg_id.t * int) list }
      (* one sequencer sweep: a contiguous block of slot assignments
         travelling as a single order datagram *)
  | Heartbeat
  | Sync_req of { sync_id : int }
  | Sync_rep of { sync_id : int; assignments : (Msg_id.t * int) list }
  | Join_request
  | Join_query of { join_id : int; joiner : Site_id.t }
  | Join_report of {
      join_id : int;
      r_next : int;
      c_count : int;
      recent : 'a msg list;
    }

type 'a sync_state = {
  sync_id : int;
  mutable sync_reps : Site_id.Set.t;
  mutable sync_acc : (Msg_id.t * int) list;
}

type 'a join_state = {
  join_id : int;
  joiner : Site_id.t;
  mutable reports : (Site_id.t * int * int * 'a msg list) list;
}

(* How many delivered messages we retain per origin for join flushes. The
   window a flush must cover is bounded by what can be in flight during one
   failure-detection period, which is far below this. *)
let recent_log_capacity = 128

type 'a t = {
  group : 'a group;
  me : Site_id.t;
  mutable deliver_cb : ('a delivery -> unit) option;
  mutable view_cb : (View.t -> unit) option;
  mutable snap_get : (unit -> 'a) option;
  mutable snap_install : ('a -> unit) option;
  (* delivery machinery (volatile: rebuilt on recovery) *)
  mutable fifo : 'a msg Fifo_state.t;
  mutable delay : 'a msg Delay_queue.t;
  mutable orders : 'a msg Order_state.t;
  mutable sent_r : int;
  mutable sent_c : int;
  mutable app_cut : int array;
      (* causal messages the APPLICATION has processed, per origin — as
         opposed to the delay queue's delivered cut, which runs ahead of
         the application within a release batch. Outgoing broadcasts are
         stamped with this cut: a message sent from inside a delivery
         handler must not claim causal dependence on batch-mates the
         application has not seen yet (that overstatement once let a NACK
         appear to follow the commit request it preceded, breaking the
         causal protocol's implicit-acknowledgment argument). *)
  recent : 'a msg array array;
      (* per origin, the newest [recent_log_capacity] user messages
         delivered here: slot [k mod capacity] holds the [k]th; [[||]]
         until the first *)
  recent_count : int array;  (* per origin, user messages ever logged *)
  (* wire timestamps of each app message's first-arriving datagram, kept
     from network arrival until the app delivery's audit event consumes
     them (the critical-path profiler's raw material). Populated only when
     the audit log is live, so the common un-audited run never touches it. *)
  rx_times : (Msg_id.t, Net.Network.rx_timing) Hashtbl.t;
  mutable relayed : Msg_id.Set.t;
  (* membership *)
  mutable view : View.t;
  last_heard : Sim.Time.t array;
  mutable alive : bool;
  mutable initialized : bool;
  mutable frozen : Site_id.Set.t;
  mutable frozen_buffer : (Site_id.t * 'a wire) list;
      (* reversed; app messages from frozen origins, replayed at unfreeze —
         freezing must delay, never lose: the joiner's post-recovery stream
         can arrive before our own join commit does *)
  mutable raw_buffer : (Site_id.t * 'a wire) list;  (* reversed *)
  (* sequencer *)
  mutable seq_synced : bool;
  mutable next_assign : int;
  mutable id_counter : int;  (* sync_id / join_id generator *)
  mutable pending_sync : 'a sync_state option;
  mutable pending_join : 'a join_state option;
  mutable joining : bool;  (* this site is waiting for a join commit *)
  (* outgoing batch (empty and inert when the group has no batch policy) *)
  mutable pending_out : 'a msg list;
      (* newest first; flushed as one Frame on size or timer *)
  mutable out_frame : int;  (* id of the currently open frame *)
  mutable frame_counter : int;  (* monotone, survives recovery *)
  mutable in_frame : bool;
      (* processing an incoming Frame: defer sequencer sweeps to one per
         frame instead of one per inner message *)
  mutable order_sweep : int;  (* batched order-datagram id generator *)
  (* event counts since creation, kept across recoveries; the sampler's
     delta probes read them *)
  mutable n_bcast_r : int;
  mutable n_bcast_c : int;
  mutable n_bcast_t : int;
  mutable n_deliver : int;
  mutable n_views : int;
  mutable n_frames : int;
  (* planted-bug state (test-only, see [create_group]) *)
  mutable bug_causal_fired : bool;
  mutable bug_held : 'a msg Order_state.ready option;
  mutable bug_total_fired : bool;
}

and 'a group = {
  g_engine : Sim.Engine.t;
  g_net : 'a wire Net.Network.t;
  g_n : int;
  g_hb : Sim.Time.t;
  g_suspect : Sim.Time.t;
  g_flood : bool;
  g_batch : batch option;
  g_audit : Audit.Log.t;
  g_bug_causal : bool;
  g_bug_total : bool;
  mutable g_eps : 'a t array;
}

let audit_cls = function
  | Msg_id.Reliable -> Audit.Event.R
  | Msg_id.Causal -> Audit.Event.C
  | Msg_id.Total -> Audit.Event.T

let a_now t = Sim.Engine.now t.group.g_engine

let engine group = group.g_engine
let n_sites group = group.g_n
let stats group = Net.Network.stats group.g_net
let endpoints group = group.g_eps

let site t = t.me
let view t = t.view
let is_primary t = View.is_primary t.view ~n_total:t.group.g_n
let is_up t = t.alive
let is_ready t = t.alive && t.initialized
let delivered_vc t = Delay_queue.delivered_vc t.delay
let pending_causal t = Delay_queue.pending_count t.delay
let open_frame_len t = List.length t.pending_out
let order_backlog t = Order_state.pending_count t.orders
let unassigned_arrivals t = Order_state.unassigned_count t.orders

let set_deliver t cb = t.deliver_cb <- Some cb
let set_on_view t cb = t.view_cb <- Some cb

let set_snapshot_hooks t ~get ~install =
  t.snap_get <- Some get;
  t.snap_install <- Some install

let classify_wire user = function
  | App { msg = { m_payload = User payload; _ }; relayed } ->
    if relayed then "relay" else user payload
  | App { msg = { m_payload = Join_commit _; _ }; _ } -> "join"
  | Frame _ -> "frame"
  | Order _ | Orders _ -> "order"
  | Heartbeat -> "hb"
  | Sync_req _ | Sync_rep _ -> "sync"
  | Join_request | Join_query _ | Join_report _ -> "join"

(* ------------------------------------------------------------------ *)
(* Sending *)

let fresh_id t =
  t.id_counter <- t.id_counter + 1;
  t.id_counter

let send_wire t ~dst wire = Net.Network.send t.group.g_net ~src:t.me ~dst wire

let broadcast_wire ?(include_self = true) t wire =
  Net.Network.send_all t.group.g_net ~src:t.me ~include_self wire

(* Ship the open frame as one wire datagram. No-op when nothing pends. *)
let flush_out t =
  match t.pending_out with
  | [] -> ()
  | pending ->
    t.pending_out <- [];
    t.n_frames <- t.n_frames + 1;
    broadcast_wire t (Frame { frame = t.out_frame; msgs = List.rev pending })

(* Enqueue a stamped message on the open frame, opening one (and arming
   its flush timer) if needed. Returns the frame id for the audit header. *)
let enqueue_out t batch msg =
  (match t.pending_out with
  | [] ->
    t.frame_counter <- t.frame_counter + 1;
    t.out_frame <- t.frame_counter;
    let fid = t.out_frame in
    ignore
      (Sim.Engine.schedule t.group.g_engine ~delay:batch.max_delay (fun () ->
           if t.alive && t.out_frame = fid then flush_out t))
  | _ :: _ -> ());
  let frame = t.out_frame in
  t.pending_out <- msg :: t.pending_out;
  if List.length t.pending_out >= batch.max_msgs then flush_out t;
  frame

(* Dispatch one stamped broadcast: directly as an App datagram, or — under
   a batch policy — onto the open frame. The stamp, sequence numbers and
   audit Send are identical either way; only the wire framing differs.
   [direct] forces the unbatched path (join commits must not sit in a
   frame: members deliver them raw during the join window), after flushing
   so the commit cannot overtake its own frame on the FIFO links. *)
let dispatch_app ?txn ~direct t msg =
  let frame =
    match t.group.g_batch with
    | None -> None
    | Some batch ->
      if direct then begin
        flush_out t;
        None
      end
      else Some (enqueue_out t batch msg)
  in
  Audit.Log.send ?frame t.group.g_audit ~at:(a_now t) ~origin:t.me
    ~cls:(audit_cls msg.m_id.Msg_id.cls) ~seq:msg.m_id.Msg_id.seq ~txn
    ~vc:msg.m_vc;
  if frame = None then broadcast_wire t (App { msg; relayed = false })

let broadcast_payload ?txn t cls payload ~joiner_floor =
  (match cls with
  | `Reliable -> t.n_bcast_r <- t.n_bcast_r + 1
  | `Causal -> t.n_bcast_c <- t.n_bcast_c + 1
  | `Total -> t.n_bcast_t <- t.n_bcast_t + 1);
  let direct = match payload with Join_commit _ -> true | User _ -> false in
  match cls with
  | `Reliable ->
    let id = { Msg_id.origin = t.me; cls = Msg_id.Reliable; seq = t.sent_r } in
    t.sent_r <- t.sent_r + 1;
    dispatch_app ?txn ~direct t { m_id = id; m_vc = None; m_payload = payload };
    { msg_id = id; msg_vc = None }
  | (`Causal | `Total) as ordered ->
    let cut = Array.copy t.app_cut in
    t.sent_c <- t.sent_c + 1;
    cut.(t.me) <- t.sent_c;
    (* A join commit must be deliverable at members that have not yet
       flushed the joiner's stream: understate the joiner component. *)
    (match joiner_floor with
    | Some (joiner, floor) -> cut.(joiner) <- Stdlib.min cut.(joiner) floor
    | None -> ());
    let vc = Vc.of_array cut in
    let mcls = match ordered with `Causal -> Msg_id.Causal | `Total -> Msg_id.Total in
    let id = { Msg_id.origin = t.me; cls = mcls; seq = cut.(t.me) } in
    let msg = { m_id = id; m_vc = Some vc; m_payload = payload } in
    dispatch_app ?txn ~direct t msg;
    { msg_id = id; msg_vc = msg.m_vc }

let broadcast ?txn t cls payload =
  if not t.alive then invalid_arg "Endpoint.broadcast: site is down";
  if not t.initialized then invalid_arg "Endpoint.broadcast: joining";
  broadcast_payload ?txn t cls (User payload) ~joiner_floor:None

(* ------------------------------------------------------------------ *)
(* Delivery to the application *)

let remember_recent t msg =
  let origin = msg.m_id.Msg_id.origin in
  if Array.length t.recent.(origin) = 0 then
    t.recent.(origin) <- Array.make recent_log_capacity msg;
  let count = t.recent_count.(origin) in
  t.recent.(origin).(count mod recent_log_capacity) <- msg;
  t.recent_count.(origin) <- count + 1

(* The logged messages from [origin], oldest first. *)
let recent_msgs t origin =
  let count = t.recent_count.(origin) in
  let kept = Stdlib.min count recent_log_capacity in
  List.init kept (fun k ->
      t.recent.(origin).((count - kept + k) mod recent_log_capacity))

let rec app_deliver ?(flush = false) t ~global_seq msg =
  let id = msg.m_id and vc = msg.m_vc in
  let timing =
    (* only an audited run fills [rx_times] *)
    if Audit.Log.enabled t.group.g_audit then Hashtbl.find_opt t.rx_times id
    else None
  in
  let t_sent, t_depart, t_arrive =
    match timing with
    | Some tm ->
      Hashtbl.remove t.rx_times id;
      ( Some tm.Net.Network.rx_sent,
        Some tm.Net.Network.rx_depart,
        Some tm.Net.Network.rx_arrive )
    | None -> (None, None, None)
  in
  Audit.Log.deliver ?t_sent ?t_depart ?t_arrive t.group.g_audit ~at:(a_now t)
    ~site:t.me ~origin:id.Msg_id.origin ~cls:(audit_cls id.Msg_id.cls)
    ~seq:id.Msg_id.seq ~vc ~global_seq ~flush;
  match msg.m_payload with
  | User user ->
    t.n_deliver <- t.n_deliver + 1;
    remember_recent t msg;
    (match t.deliver_cb with
    | Some cb -> cb { id; vc; global_seq; payload = user }
    | None -> ())
  | Join_commit jc -> member_apply_join_commit t jc

(* Deliver a totally-ordered batch that Order_state reports ready. *)
and deliver_ready_totals t ready =
  let ready =
    (* Planted total-order divergence: site 1 holds back the first ready
       slot and delivers it after the next one — two sites then disagree
       on the total prefix. *)
    if not (t.group.g_bug_total && t.me = 1) || ready = [] then ready
    else
      match t.bug_held with
      | None when not t.bug_total_fired -> (
        match ready with
        | first :: rest ->
          t.bug_held <- Some first;
          rest
        | [] -> ready)
      | Some held ->
        t.bug_held <- None;
        t.bug_total_fired <- true;
        ready @ [ held ]
      | None -> ready
  in
  List.iter
    (fun { Order_state.global_seq; id = _; payload = msg } ->
      app_deliver t ~global_seq:(Some global_seq) msg)
    ready

(* A total-class message has passed causal delivery: hand it to the order
   bookkeeping, and assign it a slot if we are the synced sequencer. *)
and total_arrival t msg =
  let ready = Order_state.note_arrival t.orders msg.m_id msg in
  deliver_ready_totals t ready;
  (* Inside a frame, one sweep covers every inner arrival: the caller runs
     [maybe_assign] once after unpacking, so a frame of commit requests
     costs one order datagram instead of one per message. *)
  if not t.in_frame then maybe_assign t

and maybe_assign t =
  (* Assigning a slot is a commitment: a sequencer in a minority view must
     stay silent, or a partitioned group would order (and its database
     layer apply) transactions the primary side never saw — split brain. *)
  if
    t.alive && t.initialized && t.seq_synced
    && Site_id.equal (View.coordinator t.view) t.me
    && View.is_primary t.view ~n_total:t.group.g_n
  then begin
    match t.group.g_batch with
    | None ->
      List.iter
        (fun id ->
          let global_seq = t.next_assign in
          t.next_assign <- t.next_assign + 1;
          Audit.Log.order_assign t.group.g_audit ~at:(a_now t) ~by:t.me
            ~origin:id.Msg_id.origin ~seq:id.Msg_id.seq ~global_seq;
          let ready = Order_state.note_order t.orders id ~global_seq in
          broadcast_wire ~include_self:false t (Order { id; global_seq });
          deliver_ready_totals t ready)
        (Order_state.unordered_arrivals t.orders)
    | Some _ -> (
      (* One sweep, one order datagram: assign contiguous slots to every
         unordered arrival and ship the whole block at once. *)
      match Order_state.unordered_arrivals t.orders with
      | [] -> ()
      | ids ->
        t.order_sweep <- t.order_sweep + 1;
        let sweep = t.order_sweep in
        let assignments =
          List.map
            (fun id ->
              let global_seq = t.next_assign in
              t.next_assign <- t.next_assign + 1;
              Audit.Log.order_assign ~frame:sweep t.group.g_audit
                ~at:(a_now t) ~by:t.me ~origin:id.Msg_id.origin
                ~seq:id.Msg_id.seq ~global_seq;
              (id, global_seq))
            ids
        in
        let readies =
          List.map
            (fun (id, global_seq) -> Order_state.note_order t.orders id ~global_seq)
            assignments
        in
        broadcast_wire ~include_self:false t (Orders { frame = sweep; assignments });
        List.iter (deliver_ready_totals t) readies)
  end

(* Releases from the causal queue fan out by class. The application cut
   advances one message at a time, just before that message's handler. *)
and deliver_causal_releases t releases =
  List.iter
    (fun { Delay_queue.vc; payload = msg; _ } ->
      let id = msg.m_id in
      let origin = id.Msg_id.origin in
      if id.Msg_id.seq > t.app_cut.(origin) then
        t.app_cut.(origin) <- id.Msg_id.seq;
      match id.Msg_id.cls with
      | Msg_id.Causal -> app_deliver t ~global_seq:None msg
      | Msg_id.Total ->
        Audit.Log.pass t.group.g_audit ~at:(a_now t) ~site:t.me ~origin
          ~seq:id.Msg_id.seq ~vc ~flush:false;
        total_arrival t msg
      | Msg_id.Reliable -> assert false)
    releases

(* ------------------------------------------------------------------ *)
(* Join protocol: member side *)

(* Force-apply the flush window for a joiner, then fast-forward the stream
   counters to the agreed bases. Entries already delivered locally are
   skipped via the counters. *)
and force_apply_window t ~joiner ~r_base ~c_base window =
  (* Deliveries below the bases are covered by the flush or the snapshot's
     state transfer: tell the monitors before the counters jump. *)
  Audit.Log.advance t.group.g_audit ~at:(a_now t) ~site:t.me ~origin:joiner
    ~r_upto:r_base ~c_upto:c_base;
  let reliable, ordered =
    List.partition (fun e -> e.m_id.Msg_id.cls = Msg_id.Reliable) window
  in
  let by_seq a b = Int.compare a.m_id.Msg_id.seq b.m_id.Msg_id.seq in
  List.iter
    (fun e ->
      if e.m_id.Msg_id.seq >= Fifo_state.expected t.fifo ~origin:joiner then
        app_deliver ~flush:true t ~global_seq:None e)
    (List.sort by_seq reliable);
  let released_r = Fifo_state.fast_forward t.fifo ~origin:joiner ~next_seq:r_base in
  List.iter
    (fun (_, msg) -> app_deliver ~flush:true t ~global_seq:None msg)
    released_r;
  let delivered = Vc.get (Delay_queue.delivered_vc t.delay) joiner in
  List.iter
    (fun e ->
      if e.m_id.Msg_id.seq > delivered then begin
        if e.m_id.Msg_id.seq > t.app_cut.(joiner) then
          t.app_cut.(joiner) <- e.m_id.Msg_id.seq;
        match e.m_id.Msg_id.cls, e.m_vc with
        | Msg_id.Causal, _ -> app_deliver ~flush:true t ~global_seq:None e
        | Msg_id.Total, Some vc ->
          Audit.Log.pass t.group.g_audit ~at:(a_now t) ~site:t.me
            ~origin:joiner ~seq:e.m_id.Msg_id.seq ~vc ~flush:true;
          total_arrival t e
        | Msg_id.Total, None | Msg_id.Reliable, _ -> assert false
      end)
    (List.sort by_seq ordered);
  if c_base > t.app_cut.(joiner) then t.app_cut.(joiner) <- c_base;
  let released_c = Delay_queue.fast_forward t.delay ~origin:joiner ~count:c_base in
  deliver_causal_releases t released_c

and member_apply_join_commit t jc =
  if not (Site_id.equal jc.jc_joiner t.me) then begin
    force_apply_window t ~joiner:jc.jc_joiner ~r_base:jc.jc_r_base
      ~c_base:jc.jc_c_base jc.jc_window;
    t.frozen <- Site_id.Set.remove jc.jc_joiner t.frozen;
    replay_frozen t jc.jc_joiner;
    let v =
      View.of_parts ~id:jc.jc_snapshot.snap_view_id
        ~members:jc.jc_snapshot.snap_members
        ~coordinator:jc.jc_snapshot.snap_coordinator
    in
    install_view t v;
    if Site_id.equal (View.coordinator t.view) t.me then t.pending_join <- None
  end

(* ------------------------------------------------------------------ *)
(* Views and failure detection *)

and install_view t v =
  if not (View.equal t.view v) then begin
    t.n_views <- t.n_views + 1;
    let was_coordinator = Site_id.equal (View.coordinator t.view) t.me in
    let removed =
      List.filter (fun s -> not (View.mem v s)) (View.members_list t.view)
    in
    (* A removed member's incarnation is over: anything still buffered from
       it can never become deliverable (a removed member does not
       retransmit), and its sequence numbers are reused by its next
       incarnation — the join flush re-bases the stream from the agreed
       cut. Leftovers would be released, or shadow fresh messages as
       duplicates, when that happens; drop them now. *)
    List.iter
      (fun s ->
        Fifo_state.purge t.fifo ~origin:s;
        Delay_queue.purge t.delay ~origin:s;
        t.frozen <- Site_id.Set.remove s t.frozen;
        t.frozen_buffer <-
          List.filter
            (fun (_, wire) ->
              match wire with
              | App { msg; _ } -> not (Site_id.equal msg.m_id.Msg_id.origin s)
              | _ -> true)
            t.frozen_buffer)
      removed;
    t.view <- v;
    (match t.view_cb with Some cb -> cb v | None -> ());
    let now_coordinator =
      View.size v > 0 && Site_id.equal (View.coordinator v) t.me
    in
    if now_coordinator && not was_coordinator then start_order_sync t
    else if now_coordinator then maybe_assign t;
    if now_coordinator then begin
      maybe_finish_order_sync t;
      maybe_finalize_join t
    end
  end

and start_order_sync t =
  t.seq_synced <- false;
  let sync_id = fresh_id t in
  t.pending_sync <-
    Some { sync_id; sync_reps = Site_id.Set.empty; sync_acc = [] };
  broadcast_wire t (Sync_req { sync_id })

(* Like [maybe_finalize_join]: re-checked on replies and on view changes,
   so a member crashing mid-sync cannot stall the new sequencer forever. *)
and maybe_finish_order_sync t =
  match t.pending_sync with
  | Some sync ->
    if Site_id.Set.subset t.view.View.members sync.sync_reps then
      finish_order_sync t sync
  | None -> ()

and finish_order_sync t sync =
  let ready = Order_state.adopt t.orders sync.sync_acc in
  deliver_ready_totals t ready;
  t.next_assign <- Order_state.max_assigned t.orders + 1;
  t.seq_synced <- true;
  t.pending_sync <- None;
  maybe_assign t

(* ------------------------------------------------------------------ *)
(* Join protocol: coordinator side *)

and start_join t ~joiner =
  match t.pending_join with
  | Some _ -> ()  (* one join at a time; the joiner retries *)
  | None ->
    let join_id = fresh_id t in
    t.pending_join <- Some { join_id; joiner; reports = [] };
    broadcast_wire t (Join_query { join_id; joiner })

and handle_join_query t ~src ~join_id ~joiner =
  if t.initialized && not (Site_id.equal joiner t.me) then begin
    t.frozen <- Site_id.Set.add joiner t.frozen;
    let r_next = Fifo_state.expected t.fifo ~origin:joiner in
    let c_count = Vc.get (Delay_queue.delivered_vc t.delay) joiner in
    let recent = recent_msgs t joiner in
    send_wire t ~dst:src (Join_report { join_id; r_next; c_count; recent })
  end

and handle_join_report t ~src ~join_id ~r_next ~c_count ~recent =
  match t.pending_join with
  | Some join when join.join_id = join_id ->
    if not (List.exists (fun (s, _, _, _) -> Site_id.equal s src) join.reports)
    then join.reports <- (src, r_next, c_count, recent) :: join.reports;
    maybe_finalize_join t
  | Some _ | None -> ()

(* Completeness must be re-checked whenever either side changes: a report
   arriving, or a reporter leaving the view (a member that crashes mid-join
   would otherwise stall the join forever — the joiner's retry is refused
   while [pending_join] is occupied). *)
and maybe_finalize_join t =
  match t.pending_join with
  | Some join ->
    let reported =
      Site_id.Set.of_list (List.map (fun (s, _, _, _) -> s) join.reports)
    in
    if Site_id.Set.subset t.view.View.members reported then finalize_join t join
  | None -> ()

and finalize_join t join =
  let r_base =
    List.fold_left (fun acc (_, r, _, _) -> Stdlib.max acc r) 0 join.reports
  and c_base =
    List.fold_left (fun acc (_, _, c, _) -> Stdlib.max acc c) 0 join.reports
  in
  (* Assemble the flush window: every joiner-origin message any member
     delivered that another might miss, deduplicated by id. *)
  let window =
    List.fold_left
      (fun acc (_, _, _, recent) ->
        List.fold_left
          (fun acc e ->
            if List.exists (fun o -> Msg_id.equal o.m_id e.m_id) acc then acc
            else e :: acc)
          acc recent)
      [] join.reports
  in
  let wanted e =
    match e.m_id.Msg_id.cls with
    | Msg_id.Reliable -> e.m_id.Msg_id.seq < r_base
    | Msg_id.Causal | Msg_id.Total -> e.m_id.Msg_id.seq <= c_base
  in
  let window = List.filter wanted window in
  (* The join commit's joiner-stream component must be deliverable at the
     member that has delivered the LEAST from the joiner: members freeze the
     joiner's stream when queried, so each sits exactly at its reported
     count until the commit arrives. Flooring at our own count would block
     the commit forever at any member the coordinator is ahead of (possible
     after asymmetric loss around a partition edge). *)
  let c_floor =
    List.fold_left
      (fun acc (_, _, c, _) -> Stdlib.min acc c)
      (Vc.get (Delay_queue.delivered_vc t.delay) join.joiner)
      join.reports
  in
  (* Bring ourselves up to the bases before snapshotting, so the snapshot
     covers everything any live member has delivered from the joiner. *)
  force_apply_window t ~joiner:join.joiner ~r_base ~c_base window;
  t.frozen <- Site_id.Set.remove join.joiner t.frozen;
  let new_view = View.add t.view join.joiner in
  let snap_app =
    match t.snap_get with
    | Some get -> get ()
    | None -> invalid_arg "Endpoint: snapshot hooks not installed"
  in
  let snapshot =
    {
      snap_cut = Vc.to_array (Delay_queue.delivered_vc t.delay);
      snap_r_expected =
        List.map
          (fun s -> (s, Fifo_state.expected t.fifo ~origin:s))
          (Site_id.all ~n:t.group.g_n);
      snap_next_total = Order_state.next_deliver t.orders;
      snap_orders = Order_state.known_assignments t.orders;
      snap_view_id = new_view.View.id;
      snap_members = View.members_list new_view;
      snap_coordinator = View.coordinator new_view;
      snap_app;
    }
  in
  install_view t new_view;
  let jc =
    {
      jc_joiner = join.joiner;
      jc_r_base = r_base;
      jc_c_base = c_base;
      jc_window = window;
      jc_snapshot = snapshot;
    }
  in
  ignore
    (broadcast_payload t `Causal (Join_commit jc)
       ~joiner_floor:(Some (join.joiner, c_floor)));
  t.pending_join <- None

(* ------------------------------------------------------------------ *)
(* Join protocol: joiner side *)

and joiner_install t ~commit_id jc =
  let snap = jc.jc_snapshot in
  let n = t.group.g_n in
  t.fifo <- Fifo_state.create ();
  List.iter
    (fun (origin, next_seq) ->
      ignore (Fifo_state.fast_forward t.fifo ~origin ~next_seq))
    snap.snap_r_expected;
  t.delay <- Delay_queue.create ~n;
  Array.iteri
    (fun origin count ->
      ignore (Delay_queue.fast_forward t.delay ~origin ~count))
    snap.snap_cut;
  t.app_cut <- Array.copy snap.snap_cut;
  t.orders <- Order_state.create ();
  Order_state.fast_forward t.orders ~next_deliver:snap.snap_next_total;
  ignore (Order_state.adopt t.orders snap.snap_orders);
  t.sent_c <- snap.snap_cut.(t.me);
  t.sent_r <- List.assoc t.me snap.snap_r_expected;
  if Audit.Log.enabled t.group.g_audit then begin
    let r_next = Array.make n 0 in
    List.iter
      (fun (origin, next_seq) -> if origin < n then r_next.(origin) <- next_seq)
      snap.snap_r_expected;
    Audit.Log.reset t.group.g_audit ~at:(a_now t) ~site:t.me
      ~cut:(Array.copy snap.snap_cut) ~r_next
      ~next_total:snap.snap_next_total
  end;
  (match t.snap_install with
  | Some install -> install snap.snap_app
  | None -> invalid_arg "Endpoint: snapshot hooks not installed");
  t.view <-
    View.of_parts ~id:snap.snap_view_id ~members:snap.snap_members
      ~coordinator:snap.snap_coordinator;
  t.joining <- false;
  t.initialized <- true;
  let now = Sim.Engine.now t.group.g_engine in
  Array.iteri (fun i _ -> t.last_heard.(i) <- now) t.last_heard;
  (match t.view_cb with Some cb -> cb t.view | None -> ());
  let buffered = List.rev t.raw_buffer in
  t.raw_buffer <- [];
  List.iter (fun (src, wire) -> handle t ~src wire) buffered;
  (* Only now account for the join commit itself, which was consumed raw,
     outside the delay queue — without this the coordinator's stream stalls
     here forever, because the commit's slot never re-arrives. It must wait
     until after the raw-buffer replay: the coordinator's messages stamped
     but still unsent at snapshot time (its open frame, or a loopback
     still in flight) carry sequence numbers BELOW the commit's and were
     flushed onto the FIFO link ahead of it, so they are sitting in the
     raw buffer right now — and their effects are in neither the snapshot
     state nor its cut. Skipping to the commit's slot before replaying
     them would drop them as duplicates (replica divergence; batching
     widens the race from a loopback latency to a full [max_delay]).
     Anything buffered on a causal dependency on the commit is released
     by the skip and delivered here. *)
  if commit_id.Msg_id.seq > t.app_cut.(commit_id.Msg_id.origin) then
    t.app_cut.(commit_id.Msg_id.origin) <- commit_id.Msg_id.seq;
  Audit.Log.deliver t.group.g_audit ~at:(a_now t) ~site:t.me
    ~origin:commit_id.Msg_id.origin ~cls:(audit_cls commit_id.Msg_id.cls)
    ~seq:commit_id.Msg_id.seq ~vc:None ~global_seq:None ~flush:true;
  let released =
    Delay_queue.fast_forward t.delay ~origin:commit_id.Msg_id.origin
      ~count:commit_id.Msg_id.seq
  in
  deliver_causal_releases t released

(* ------------------------------------------------------------------ *)
(* Wire dispatch *)

and handle ?rx t ~src wire =
  if t.alive then begin
    t.last_heard.(src) <- Sim.Engine.now t.group.g_engine;
    if not t.initialized then begin
      match wire with
      | App { msg = { m_id; m_payload = Join_commit jc; _ }; _ }
        when Site_id.equal jc.jc_joiner t.me ->
        joiner_install t ~commit_id:m_id jc
      | Heartbeat -> ()
      | _ -> t.raw_buffer <- (src, wire) :: t.raw_buffer
    end
    else handle_initialized ?rx t ~src wire
  end

and handle_initialized ?rx t ~src wire =
  match wire with
  | App { msg; relayed = _ } -> handle_app ?rx t ~src msg
  | Frame { frame = _; msgs } ->
    (* Unpack in sender order; each inner message goes through exactly the
       App path (sharing the frame datagram's wire timestamps). The
       sequencer sweep is deferred to once per frame. *)
    t.in_frame <- true;
    List.iter (fun msg -> handle_app ?rx t ~src msg) msgs;
    t.in_frame <- false;
    maybe_assign t
  | Order { id; global_seq } ->
    (* Accept orders only from live-view members: a failed sequencer's
       stragglers must not conflict with its successor's assignments. *)
    if View.mem t.view src then begin
      let ready = Order_state.note_order t.orders id ~global_seq in
      deliver_ready_totals t ready
    end
  | Orders { frame = _; assignments } ->
    if View.mem t.view src then
      List.iter
        (fun (id, global_seq) ->
          let ready = Order_state.note_order t.orders id ~global_seq in
          deliver_ready_totals t ready)
        assignments
  | Heartbeat -> ()
  | Sync_req { sync_id } -> handle_sync_req t ~src ~sync_id
  | Sync_rep { sync_id; assignments } -> begin
    match t.pending_sync with
    | Some sync when sync.sync_id = sync_id ->
      if not (Site_id.Set.mem src sync.sync_reps) then begin
        sync.sync_reps <- Site_id.Set.add src sync.sync_reps;
        sync.sync_acc <- assignments @ sync.sync_acc
      end;
      maybe_finish_order_sync t
    | Some _ | None -> ()
  end
  | Join_request ->
    if Site_id.equal (View.coordinator t.view) t.me then start_join t ~joiner:src
  | Join_query { join_id; joiner } -> handle_join_query t ~src ~join_id ~joiner
  | Join_report { join_id; r_next; c_count; recent } ->
    handle_join_report t ~src ~join_id ~r_next ~c_count ~recent

and handle_sync_req t ~src ~sync_id =
  (* Answer only once our own view agrees that the requester leads it;
     otherwise our answer might not be final. Re-check after a beat. *)
  if View.mem t.view src && Site_id.equal (View.coordinator t.view) src then
    send_wire t ~dst:src
      (Sync_rep { sync_id; assignments = Order_state.known_assignments t.orders })
  else
    ignore
      (Sim.Engine.schedule t.group.g_engine ~delay:t.group.g_hb (fun () ->
           if t.alive && t.initialized then handle_sync_req t ~src ~sync_id))

and replay_frozen t origin =
  let mine, rest =
    List.partition
      (fun (_, wire) ->
        match wire with
        | App { msg; _ } -> Site_id.equal msg.m_id.Msg_id.origin origin
        | _ -> false)
      (List.rev t.frozen_buffer)
  in
  t.frozen_buffer <- List.rev rest;
  List.iter (fun (src, wire) -> handle_initialized t ~src wire) mine

and handle_app ?rx t ~src msg =
  let id = msg.m_id in
  (* First arrival wins: under flooding a relayed copy may race the
     origin's datagram, and the earliest copy is the one that drives
     delivery progress. Frozen-buffered messages record here too — their
     replay happens inside some later datagram's handler, whose timestamps
     would be wrong for them. *)
  (match rx with
  | Some timing
    when Audit.Log.enabled t.group.g_audit && not (Hashtbl.mem t.rx_times id)
    ->
    Hashtbl.replace t.rx_times id timing
  | _ -> ());
  if Site_id.Set.mem id.Msg_id.origin t.frozen then
    t.frozen_buffer <- (src, App { msg; relayed = false }) :: t.frozen_buffer
  else if not (View.mem t.view id.Msg_id.origin) then
    (* Straggler from a removed member's incarnation — e.g. sent across a
       healed partition before the member crashed into its rejoin. Its old
       stream ended when it left the view; admitting the message would
       shadow (or be shadowed by) the sequence numbers of the member's next
       incarnation. A joining member's fresh messages never hit this arm:
       they arrive under the freeze and replay after the join commit has
       put the joiner back in the view. *)
    ()
  else begin
    maybe_relay t ~src msg;
    match id.Msg_id.cls with
    | Msg_id.Reliable -> begin
      match Fifo_state.offer t.fifo ~origin:id.Msg_id.origin ~seq:id.Msg_id.seq msg with
      | Fifo_state.Ready released ->
        List.iter (fun (_, m) -> app_deliver t ~global_seq:None m) released
      | Fifo_state.Buffered | Fifo_state.Duplicate -> ()
    end
    | Msg_id.Causal | Msg_id.Total -> begin
      let stamp =
        match msg.m_vc with
        | Some stamp -> stamp
        | None -> invalid_arg "Endpoint: ordered message without stamp"
      in
      match Delay_queue.offer t.delay ~origin:id.Msg_id.origin ~vc:stamp msg with
      | Delay_queue.Ready releases -> deliver_causal_releases t releases
      | Delay_queue.Buffered ->
        (* Planted causal inversion: site 1 delivers the first causal
           message the delay queue correctly held back — i.e. ahead of a
           message it causally depends on. *)
        if
          t.group.g_bug_causal && t.me = 1
          && (not t.bug_causal_fired)
          && id.Msg_id.cls = Msg_id.Causal
        then begin
          t.bug_causal_fired <- true;
          deliver_causal_releases t
            [ { Delay_queue.origin = id.Msg_id.origin; vc = stamp; payload = msg } ]
        end
      | Delay_queue.Duplicate -> ()
    end
  end

and maybe_relay t ~src msg =
  if
    t.group.g_flood
    && (not (Site_id.equal src t.me))
    && not (Msg_id.Set.mem msg.m_id t.relayed)
  then begin
    t.relayed <- Msg_id.Set.add msg.m_id t.relayed;
    broadcast_wire ~include_self:false t (App { msg; relayed = true })
  end

(* ------------------------------------------------------------------ *)
(* Timers *)

let suspect_check t =
  if t.alive && t.initialized then begin
    let now = Sim.Engine.now t.group.g_engine in
    let stale s =
      (not (Site_id.equal s t.me))
      && Sim.Time.( < ) t.group.g_suspect (Sim.Time.diff now (Sim.Time.min now t.last_heard.(s)))
    in
    let suspects = List.filter stale (View.members_list t.view) in
    if suspects <> [] then begin
      let v = List.fold_left View.remove t.view suspects in
      (match t.pending_join with
      | Some join when List.exists (Site_id.equal join.joiner) suspects ->
        t.pending_join <- None
      | Some _ | None -> ());
      install_view t v
    end
  end

let heartbeat t =
  if t.alive && t.initialized then
    broadcast_wire ~include_self:false t Heartbeat

let rec schedule_timers t =
  ignore
    (Sim.Engine.schedule t.group.g_engine ~delay:t.group.g_hb (fun () ->
         heartbeat t;
         suspect_check t;
         schedule_timers t))

(* ------------------------------------------------------------------ *)
(* Crash / recovery *)

let crash group s =
  Audit.Log.fault_crash group.g_audit ~at:(Sim.Engine.now group.g_engine) ~site:s;
  Net.Network.crash group.g_net s;
  let t = group.g_eps.(s) in
  t.alive <- false

let partition group sites =
  Audit.Log.fault_partition group.g_audit ~at:(Sim.Engine.now group.g_engine)
    ~group:sites;
  Net.Network.partition group.g_net sites

let heal group =
  Audit.Log.fault_heal group.g_audit ~at:(Sim.Engine.now group.g_engine);
  Net.Network.heal group.g_net
let set_loss group loss = Net.Network.set_loss group.g_net loss

let rec joiner_retry t =
  if t.alive && t.joining && not t.initialized then begin
    broadcast_wire ~include_self:false t Join_request;
    ignore
      (Sim.Engine.schedule t.group.g_engine
         ~delay:(Sim.Time.add t.group.g_suspect t.group.g_suspect)
         (fun () -> joiner_retry t))
  end

let recover group s =
  Audit.Log.fault_recover group.g_audit ~at:(Sim.Engine.now group.g_engine)
    ~site:s;
  Net.Network.recover group.g_net s;
  let t = group.g_eps.(s) in
  if not t.alive then begin
    t.alive <- true;
    t.initialized <- false;
    t.joining <- true;
    t.raw_buffer <- [];
    t.frozen <- Site_id.Set.empty;
    t.frozen_buffer <- [];
    t.pending_sync <- None;
    t.pending_join <- None;
    t.seq_synced <- false;
    (* A frame open at crash time never reached the wire: volatile, gone.
       The frame counter stays monotone so stale flush timers stay dead. *)
    t.pending_out <- [];
    t.in_frame <- false;
    Array.fill t.recent 0 group.g_n [||];
    Array.fill t.recent_count 0 group.g_n 0;
    Hashtbl.reset t.rx_times;
    t.relayed <- Msg_id.Set.empty;
    let now = Sim.Engine.now group.g_engine in
    Array.iteri (fun i _ -> t.last_heard.(i) <- now) t.last_heard;
    joiner_retry t
  end

(* ------------------------------------------------------------------ *)
(* Construction *)

let create_group (type a) engine ~n ~latency ?(classify = fun (_ : a) -> "app")
    ?(hb_interval = Sim.Time.of_ms 50) ?(suspect_after = Sim.Time.of_ms 200)
    ?(flood = false) ?batch ?tx_time ?loss ?(sampler = Obs.Sampler.none)
    ?(audit = Audit.Log.none) ?(bug_causal_inversion = false)
    ?(bug_total_divergence = false) () : a group =
  (match batch with
  | Some { max_msgs; _ } when max_msgs < 1 ->
    invalid_arg "Endpoint.create_group: batch.max_msgs < 1"
  | Some _ | None -> ());
  let net =
    Net.Network.create engine ~n ~latency ~classify:(classify_wire classify)
      ?tx_time ?loss ()
  in
  let group =
    {
      g_engine = engine;
      g_net = net;
      g_n = n;
      g_hb = hb_interval;
      g_suspect = suspect_after;
      g_flood = flood;
      g_batch = batch;
      g_audit = audit;
      g_bug_causal = bug_causal_inversion;
      g_bug_total = bug_total_divergence;
      g_eps = [||];
    }
  in
  let make_endpoint me =
    {
      group;
      me;
      deliver_cb = None;
      view_cb = None;
      snap_get = None;
      snap_install = None;
      fifo = Fifo_state.create ();
      delay = Delay_queue.create ~n;
      orders = Order_state.create ();
      sent_r = 0;
      sent_c = 0;
      app_cut = Array.make n 0;
      recent = Array.make n [||];
      recent_count = Array.make n 0;
      rx_times = Hashtbl.create 64;
      relayed = Msg_id.Set.empty;
      view = View.initial ~n;
      last_heard = Array.make n Sim.Time.zero;
      alive = true;
      initialized = true;
      frozen = Site_id.Set.empty;
      frozen_buffer = [];
      raw_buffer = [];
      seq_synced = true;
      next_assign = 0;
      id_counter = 0;
      pending_sync = None;
      pending_join = None;
      joining = false;
      n_bcast_r = 0;
      n_bcast_c = 0;
      n_bcast_t = 0;
      n_deliver = 0;
      n_views = 0;
      n_frames = 0;
      pending_out = [];
      out_frame = 0;
      frame_counter = 0;
      in_frame = false;
      order_sweep = 0;
      bug_causal_fired = false;
      bug_held = None;
      bug_total_fired = false;
    }
  in
  group.g_eps <- Array.init n make_endpoint;
  (* Wire timestamps feed only the audit stream: an unaudited group never
     builds them. *)
  let audited = Audit.Log.enabled audit in
  Array.iter
    (fun t ->
      Net.Network.set_handler net t.me (fun ~src wire ->
          let rx = if audited then Net.Network.rx_timing net else None in
          handle ?rx t ~src wire);
      schedule_timers t)
    group.g_eps;
  (* Time-series probes over the broadcast layer and its network. Guarded
     so a disabled sampler costs the group's construction nothing (micro
     benchmarks create groups per iteration). Probes read through the
     endpoint array, so they track state across recoveries. *)
  if Obs.Sampler.enabled sampler then begin
    Array.iter
      (fun t ->
        let labels = [ ("site", string_of_int t.me) ] in
        let reg ?kind name read =
          Obs.Sampler.register sampler ~name ~labels ?kind (fun () ->
              float_of_int (read t))
        in
        reg "bcast_delay_depth" pending_causal;
        reg "bcast_open_frame" open_frame_len;
        reg "bcast_order_backlog" order_backlog;
        reg "bcast_unassigned" unassigned_arrivals;
        let count = reg ~kind:Obs.Sampler.Delta in
        count "bcast_reliable" (fun t -> t.n_bcast_r);
        count "bcast_causal" (fun t -> t.n_bcast_c);
        count "bcast_total" (fun t -> t.n_bcast_t);
        count "app_deliver" (fun t -> t.n_deliver);
        count "view_change" (fun t -> t.n_views);
        count "frames" (fun t -> t.n_frames))
      group.g_eps;
    Net.Network.register_probes net sampler
  end;
  group
