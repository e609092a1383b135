(** Run configuration shared by all replication protocols. *)

type t = {
  n_sites : int;
  latency : Net.Latency.t;
  hb_interval : Sim.Time.t;  (** heartbeat period of the membership layer *)
  suspect_after : Sim.Time.t;  (** failure-detection timeout *)
  ack_delay : Sim.Time.t option;
      (** causal protocol: send an explicit acknowledgment if idle this long
          after delivering a commit request; [None] = rely purely on
          implicit acknowledgments (the paper's base protocol — commit then
          waits for unrelated traffic) *)
  early_ww_abort : bool;
      (** causal protocol: on detecting two {e concurrent} conflicting
          writes, abort both transactions immediately (the paper's early
          conflict detection) instead of only the later-delivered one *)
  flood : bool;  (** gossip relay in the broadcast layer (cost modelling) *)
  batch : Broadcast.Endpoint.batch option;
      (** sender-side broadcast batching: coalesce outgoing broadcasts into
          wire frames (see {!Broadcast.Endpoint.batch}); [None] = one
          datagram per broadcast, byte-identical to earlier versions
          (experiment E15 sweeps the batch size) *)
  tx_time : Sim.Time.t;
      (** per-datagram NIC serialization cost (zero = infinitely fast
          interface); the bandwidth resource that makes batching pay *)
  atomic_batch_writes : bool;
      (** atomic protocol ablation: defer the write set into the commit
          request (one atomic message per transaction, the style of the
          companion work [AAES97]) instead of streaming each write as its
          own causal broadcast (this paper's section 5) *)
  atomic_premature_ack : bool;
      (** {b Planted bug — never enable outside tests.} The atomic protocol
          acknowledges commit at the origin as soon as the commit request is
          broadcast, before total-order delivery runs certification (which
          is then skipped so the premature ack is never contradicted). This
          breaks one-copy serializability under write-write contention —
          lost updates become cycles in the serialization graph. The chaos
          harness's self-test proves its checkers catch exactly this. *)
  loss : Net.Network.loss option;
      (** link-level datagram loss with ARQ retransmission; [None] = clean
          links (the default; experiment E12 sweeps this) *)
  obs : Obs.Recorder.t;
      (** span sink: every protocol's transaction lifecycle spans.
          Defaults to the disabled {!Obs.Recorder.none} — one
          predictable branch per instrumentation point, nothing
          recorded. *)
  audit : Audit.Log.t;
      (** message-lineage audit log: every broadcast send/deliver/order
          event, checked online against the primitive's contract (see
          {!Audit.Log}). Defaults to the disabled {!Audit.Log.none} — same
          one-branch discipline as [obs]. *)
  sampler : Obs.Sampler.t;
      (** time-series telemetry sampler and metrics store: every layer
          registers pull-probes (queue depths, backlogs, lock counts, and
          its event counters as delta probes) at construction, snapshot
          on a fixed simulated-time cadence (see {!Obs.Sampler}). Defaults
          to the disabled {!Obs.Sampler.none} — registration is then one
          branch and nothing is recorded. *)
  bug_causal_inversion : bool;
      (** {b Planted bug — never enable outside tests.} Site 1's broadcast
          endpoint delivers the first causal message its delay queue
          correctly held back, i.e. before a message it causally depends
          on. The audit causal-order monitor must flag the very delivery. *)
  bug_total_divergence : bool;
      (** {b Planted bug — never enable outside tests.} Site 1's broadcast
          endpoint swaps two consecutive ready total-order slots, so its
          delivery sequence diverges from every other site's. The audit
          total-order monitor must flag the first swapped delivery. *)
}

val default : n_sites:int -> t
(** 1998-LAN flavour: {!Net.Latency.lan}, 50ms heartbeats, 200ms suspicion,
    10ms idle-ack, early abort off, no flooding, observability
    disabled. *)
