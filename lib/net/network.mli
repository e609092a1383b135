(** Simulated message-passing network with FIFO links.

    The paper assumes FIFO communication links ("if a process ... broadcasts
    a message m1 before message m2 then all processes receive m1 before
    m2"). Links here are FIFO per ordered pair of sites even under random
    latencies: a message is never delivered before one sent earlier on the
    same link.

    Failure model: crash-stop with recovery. A crashed site neither sends
    nor receives, but datagrams already in flight when their sender crashes
    still arrive (they left the source at send time); a datagram is dropped
    only when its destination is down, or the pair is partitioned, at
    delivery time. Since {!send_all} fans out atomically at send time, a
    physical broadcast is all-or-nothing with respect to sender crashes.

    Deliveries are engine events, so a run is deterministic given the seed.
    Each ordered link keeps its datagrams in flight in a ring served by one
    {!Sim.Engine.channel}: a send takes its place in the engine's event
    order at once, but only the link's oldest datagram sits in the event
    queue, and neither a send nor a delivery allocates once the link's ring
    has grown to its backlog (a send allocates one [Some] box, shared by all
    copies of a {!send_all}). A delivered datagram's slot is cleared. *)

type 'm t

type loss = {
  drop_probability : float;  (** per-datagram, in [\[0, 1)] *)
  rto : Sim.Time.t;
      (** retransmission timeout of the link-level ARQ: a lost datagram is
          re-sent until it gets through, each attempt costing [rto] plus a
          fresh latency sample, and — per-link FIFO — delaying everything
          queued behind it (head-of-line blocking, as over TCP). Lost
          attempts are counted as both datagrams and drops. *)
}

val create :
  Sim.Engine.t ->
  n:int ->
  latency:Latency.t ->
  ?classify:('m -> string) ->
  ?tx_time:Sim.Time.t ->
  ?loss:loss ->
  unit ->
  'm t
(** Raises [Invalid_argument] unless [1 <= n <= Site_id.max_sites].
    [classify] labels messages for per-category accounting (default: one
    ["msg"] bucket). A site's datagram to itself arrives after a fixed
    10us, so self-delivery is asynchronous like everything else.
    [tx_time] (default zero) is the per-datagram transmit
    serialization cost: each non-self datagram occupies the sender's
    interface for [tx_time] before entering the link, so a site's outgoing
    datagrams queue behind each other — the bandwidth resource that makes
    batching pay. Zero keeps the interface infinitely fast and the
    schedule byte-identical to earlier versions. *)

val engine : 'm t -> Sim.Engine.t
val n_sites : 'm t -> int
val sites : 'm t -> Site_id.t list
val stats : 'm t -> Net_stats.t

(** {2 Telemetry probes}

    Current-state reads for the time-series sampler. Cheap relative to a
    sampling tick but not free ({!in_flight} and {!busy_links} scan the n^2
    links) — call them from probes, not from per-message paths. *)

val in_flight : 'm t -> int
(** Datagrams scheduled but not yet delivered (includes copies that will
    be dropped at delivery time). *)

type rx_timing = {
  rx_sent : Sim.Time.t;
      (** when the sender handed the datagram to the network (for a lossy
          link, before any ARQ retransmissions) *)
  rx_depart : Sim.Time.t;
      (** when it cleared the sender's NIC and entered the link; equals
          [rx_sent] for self-deliveries or when [tx_time] is zero *)
  rx_arrive : Sim.Time.t;  (** its delivery time at the receiver *)
}
(** Wire-level timestamps of one received datagram, the raw material of
    the critical-path profiler's latency blame segments:
    [rx_depart - rx_sent] is NIC serialization wait,
    [rx_arrive - rx_depart] is link latency (including ARQ retries and
    FIFO head-of-line blocking). *)

val rx_timing : 'm t -> rx_timing option
(** The timestamps of the datagram currently being delivered — [Some]
    exactly during the dynamic extent of a handler invocation, [None]
    otherwise. Handlers that record per-message timing read it
    synchronously; a purely read-only accessor, so it never perturbs the
    schedule. *)

val busy_links : 'm t -> int
(** Ordered site pairs whose FIFO link clock is in the future — links that
    still have traffic queued or in transit ahead of [now]. *)

val tx_backlog_us : 'm t -> int
(** Sum over sites of how far each NIC's transmit clock runs ahead of now,
    in microseconds — the serialization backlog batching amortizes. Always
    0 when the network was created with [tx_time] zero. *)

val register_probes : 'm t -> Obs.Sampler.t -> unit
(** Register the [net_in_flight], [net_busy_links] and [net_tx_backlog_us]
    gauges and the [net_drops] delta, in that order. *)

val set_handler : 'm t -> Site_id.t -> (src:Site_id.t -> 'm -> unit) -> unit
(** Install the message handler for a site. Must be called once per site
    before any traffic reaches it. *)

val send : 'm t -> src:Site_id.t -> dst:Site_id.t -> 'm -> unit
(** Point-to-point send. Counted as one datagram. Silently dropped (and
    counted as a drop) if either endpoint is down or the pair is
    partitioned. *)

val send_all : 'm t -> src:Site_id.t -> ?include_self:bool -> 'm -> unit
(** Physical broadcast: one broadcast operation fanned out to every other
    site (and to [src] itself when [include_self], the default). Counted as
    one broadcast of [k] datagrams where [k] is the number of targets. *)

(** {2 Failures} *)

val set_loss : 'm t -> loss option -> unit
(** Replace the link-loss model mid-run — the chaos harness's
    drop-probability bursts. Datagrams already scheduled keep the delivery
    times they were assigned; only subsequent sends see the new setting.
    Raises [Invalid_argument] on a probability outside [\[0, 1)]. *)

val crash : 'm t -> Site_id.t -> unit
(** Take a site down. In-flight messages to it are dropped at delivery
    time. Idempotent. *)

val recover : 'm t -> Site_id.t -> unit
(** Bring a site back up. The site's protocol layer is responsible for
    state transfer. Idempotent. *)

val is_up : 'm t -> Site_id.t -> bool

val partition : 'm t -> Site_id.t list -> unit
(** [partition net group] cuts every link between [group] and its
    complement, both directions. Replaces any previous partition. *)

val heal : 'm t -> unit
(** Remove the partition. *)

val reachable : 'm t -> Site_id.t -> Site_id.t -> bool
(** Both endpoints up and not separated by the partition. *)
