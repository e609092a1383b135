(** Per-site broadcast endpoints: the group-communication layer.

    A group of endpoints over one simulated {!Net.Network} provides the three
    primitives the paper builds on, sharing a single causal context the way
    ISIS shares it between CBCAST and ABCAST:

    - {b Reliable} ([`Reliable]): all-or-nothing delivery, FIFO per origin
      (the paper assumes FIFO links, so reliable broadcast inherits
      per-sender ordering).
    - {b Causal} ([`Causal]): delivery respects happened-before across all
      causal- and total-class messages; each delivery exposes its vector
      clock, which the causal replication protocol uses for implicit
      acknowledgments and early conflict detection.
    - {b Total} ([`Total]): a single total order, consistent with the causal
      order, produced by a crash-tolerant fixed sequencer (the coordinator
      of the current view). Order assignments survive sequencer failover by
      an order-sync round among the surviving members.

    Membership: heartbeat failure detection installs majority-quorum views;
    a recovered site rejoins through a coordinator-driven freeze/flush/
    snapshot protocol. During the join window, flushed messages may be
    applied out of causal order at lagging members (standard view-synchrony
    weakening); crash-free runs deliver in exact causal order. *)

type cls = [ `Reliable | `Causal | `Total ]

type 'a delivery = {
  id : Msg_id.t;
  vc : Lclock.Vector_clock.t option;  (** [Some] for causal/total messages *)
  global_seq : int option;  (** [Some] for total-class messages *)
  payload : 'a;
}

type stamp = {
  msg_id : Msg_id.t;
  msg_vc : Lclock.Vector_clock.t option;
      (** the message's causal stamp; [None] for the reliable class *)
}

type 'a group
type 'a t

type batch = { max_msgs : int; max_delay : Sim.Time.t }
(** Sender-side dispatch policy: outgoing broadcasts are coalesced into one
    wire frame holding up to [max_msgs] payloads, flushed early after
    [max_delay] of the frame being open. Each inner message keeps its own
    identity (seq, causal stamp, audit lineage); a frame of total-class
    messages costs a single sequencer agreement round. *)

(** {2 Group construction} *)

val create_group :
  Sim.Engine.t ->
  n:int ->
  latency:Net.Latency.t ->
  ?classify:('a -> string) ->
  ?hb_interval:Sim.Time.t ->
  ?suspect_after:Sim.Time.t ->
  ?flood:bool ->
  ?batch:batch ->
  ?tx_time:Sim.Time.t ->
  ?loss:Net.Network.loss ->
  ?sampler:Obs.Sampler.t ->
  ?audit:Audit.Log.t ->
  ?bug_causal_inversion:bool ->
  ?bug_total_divergence:bool ->
  unit ->
  'a group
(** [classify] labels application payloads for message accounting.
    [hb_interval] (default 50ms) is the heartbeat period; [suspect_after]
    (default 200ms) the failure-detection timeout. [flood] (default false)
    makes receivers relay first-seen application messages, modelling
    gossip-style reliable broadcast; the simulator's physical broadcast is
    atomic at send time, so flooding is about cost modelling, not
    correctness. [batch] (default [None] — every broadcast is its own
    datagram, byte-identical to earlier versions) turns on sender-side
    batching; raises [Invalid_argument] if [max_msgs < 1]. [tx_time]
    (default zero) is the per-datagram NIC serialization cost passed to
    {!Net.Network.create} — the bandwidth resource batching amortizes.
    [sampler] (default disabled) gets per-site pull-probes — the
    [bcast_delay_depth], [bcast_open_frame], [bcast_order_backlog] and
    [bcast_unassigned] gauges, then the [bcast_reliable] /
    [bcast_causal] / [bcast_total] (broadcasts sent per class),
    [app_deliver], [view_change] and [frames] (wire frames flushed)
    deltas — plus the network's probes ({!Net.Network.register_probes});
    see {!Obs.Sampler}. [audit] (default disabled) receives the full
    message-lineage event stream — sends, per-site deliveries, order
    assignments, join re-basing and fault marks — checked online by
    {!Audit.Log}'s contract monitors. The [bug_*] flags plant deliberate
    ordering violations at site 1 (deliver a held-back causal message
    early; swap two consecutive total-order slots) so tests can prove the
    monitors catch them at the first offending delivery. *)

val endpoints : 'a group -> 'a t array
val stats : 'a group -> Net.Net_stats.t
val engine : 'a group -> Sim.Engine.t
val n_sites : 'a group -> int

val crash : 'a group -> Net.Site_id.t -> unit
(** Crash a site: its endpoint stops processing and the network drops its
    traffic. Other sites detect the failure by heartbeat timeout. *)

val recover : 'a group -> Net.Site_id.t -> unit
(** Restart a crashed site. The endpoint discards volatile state and runs
    the join protocol; its replication layer is re-initialized from the
    snapshot installed by {!set_snapshot_hooks}. *)

val partition : 'a group -> Net.Site_id.t list -> unit
(** Cut the network between the given group and its complement. Each side
    suspects the other; only a majority side stays primary. Messages lost
    across the cut are {e not} replayed on heal — healing reconnects the
    links, after which minority members should rejoin via {!recover}-style
    state transfer (or the harness treats them as stale). *)

val heal : 'a group -> unit

val set_loss : 'a group -> Net.Network.loss option -> unit
(** Swap the underlying network's link-loss model mid-run (see
    {!Net.Network.set_loss}) — fault injection for loss bursts. *)

(** {2 Per-endpoint API} *)

val site : 'a t -> Net.Site_id.t

val set_deliver : 'a t -> ('a delivery -> unit) -> unit
(** Application delivery callback. Must be installed before traffic flows. *)

val set_on_view : 'a t -> (View.t -> unit) -> unit
(** Called after a new view is installed at this site. *)

val set_snapshot_hooks :
  'a t -> get:(unit -> 'a) -> install:('a -> unit) -> unit
(** [get] captures the application state for a join snapshot (called at the
    coordinator); [install] replaces the application state at a joining
    site. Required if {!recover} is used. *)

val broadcast : ?txn:int * int -> 'a t -> cls -> 'a -> stamp
(** Broadcast a payload with the given ordering class. Returns the stamp of
    the outgoing message — the causal replication protocol needs the stamp
    of its own commit requests to recognize implicit acknowledgments.
    [txn] tags the message with its originating transaction in the audit
    lineage (see {!Audit.Event}), feeding per-transaction message-cost
    accounting. Raises [Invalid_argument] if this site is crashed or not
    yet initialized after a recovery. *)

val view : 'a t -> View.t
val is_primary : 'a t -> bool
val is_up : 'a t -> bool

val is_ready : 'a t -> bool
(** Up {e and} past any pending join — the state in which {!broadcast} is
    legal. A recovered site is up but not ready until its join commit
    arrives. *)

val delivered_vc : 'a t -> Lclock.Vector_clock.t
(** This site's delivered causal cut. *)

val pending_causal : 'a t -> int
(** Buffered (not yet deliverable) causal/total messages — exposed for
    tests and liveness assertions. *)

val open_frame_len : 'a t -> int
(** Broadcasts sitting in this site's open (unflushed) outgoing frame —
    0 when batching is off. Telemetry probe. *)

val order_backlog : 'a t -> int
(** Total-class messages that arrived here but have not been delivered in
    global order yet. Telemetry probe. *)

val unassigned_arrivals : 'a t -> int
(** Arrived total-class messages with no sequencer assignment known at
    this site — at the coordinator, the sequencer's order backlog.
    Telemetry probe. *)
