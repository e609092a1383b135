(** Per-phase latency breakdown derived from a span stream.

    The direct observable for the paper's round-count claims: how much of
    a transaction's latency was spent waiting for locks, in broadcast
    rounds, collecting votes/acknowledgments, and propagating the decision
    to the replicas. All durations are in milliseconds.

    - [lock_wait], [broadcast], [vote_collect]: durations of the
      origin-side phase spans (one sample per transaction that entered the
      phase).
    - [decide_to_apply]: per committed transaction, from the origin's
      decide instant to the {e last} replica's apply instant — the
      replication lag the origin's client never sees. *)

type t = {
  lock_wait : Stats.Summary.t;
  broadcast : Stats.Summary.t;
  vote_collect : Stats.Summary.t;
  decide_to_apply : Stats.Summary.t;
}

val of_events : Span.event list -> t
(** Events in emission order, as {!Recorder.events} returns them. Spans
    closed as ["dangling"] (the transaction never decided) are excluded —
    their duration is an artifact of when the run stopped. *)

val named : t -> (string * Stats.Summary.t) list
(** [(label, durations)] rows in presentation order. *)

val percentile : Stats.Summary.t -> float -> float
(** [percentile s q] — the nearest-rank sample (rank [ceil (q * n)], at
    least 1) rounded up to the smallest bound of the 1-2-5 series from
    0.01 ms to 10 s that it does not exceed, or the observed maximum when
    that sample is above 10 s: E13's percentile columns print these
    bounds. 0 if empty. Raises [Invalid_argument] outside [\[0, 1\]]. *)
