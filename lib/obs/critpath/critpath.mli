(** Per-transaction critical-path extraction with latency blame
    attribution.

    For each committed transaction the profiler walks {e backwards} from
    its decide instant through the merged span + audit streams: the decide
    happened inside the handler of some audit delivery; that delivery's
    datagram carries its wire timestamps (audit schema v3), which
    decompose the hop into batch-wait, NIC serialization, link latency and
    ordering wait; the message's send event is in turn enclosed by the
    delivery whose handler issued it (the audit log records a delivery
    {e before} running the protocol callback that logs the sends, so the
    causal parent of a send is the latest same-site delivery at the same
    instant with a smaller log index) — and so on back to the submit,
    where the span stream's lock-wait interval splits the local prefix.

    The result is a single chain of segments whose endpoints telescope:
    they sum {e exactly} to the observed commit latency, by construction.
    Every µs the profiler cannot pin to a named wait lands in an explicit
    [Unattributed] segment, and the per-path residual (the sum of those)
    is ~0 on clean runs — the tests assert it.

    The walk terminates unconditionally: every step moves to a strictly
    smaller audit log index (a message's send precedes its deliveries,
    and an enclosing delivery precedes the send it encloses). *)

(** Segment taxonomy. [Delivery] is the unsplit wire hop used when a
    delivery carries no datagram timing (join-flush replays, pre-v3
    traces); [Timer_wait] bridges a send that a local timer — not a
    delivery — triggered (the causal protocol's idle acknowledgment) back
    to the latest delivery that armed it. *)
type seg =
  | Local  (** origin-site processing: submit handling, protocol code *)
  | Lock_wait  (** blocked in the lock manager at the origin *)
  | Batch_wait  (** enqueued, waiting for the wire frame to flush *)
  | Nic_serialize  (** frame queued behind the sender's NIC *)
  | Link_latency  (** on the wire, including ARQ retries *)
  | Ordering_wait  (** arrived, held for causal/total delivery order *)
  | Timer_wait  (** waiting for a site-local timer to fire *)
  | Delivery  (** whole send-to-delivery hop, timing unavailable *)
  | Unattributed  (** residual the walk could not explain *)

val seg_name : seg -> string
(** Kebab-case, e.g. ["ordering-wait"] — the JSON encoding. *)

val all_segs : seg list
(** Declaration order; blame tables iterate it so rows are stable. *)

type segment = {
  sg_seg : seg;
  sg_site : int;  (** where the time was spent (receiver for wire hops) *)
  sg_from_us : int;
  sg_to_us : int;  (** consecutive segments telescope: [to] = next [from] *)
  sg_note : string;
}

type path = {
  p_origin : int;
  p_local : int;
  p_submit_us : int;
  p_decide_us : int;
  p_segments : segment list;
      (** earliest first; endpoints telescope from submit to decide *)
  p_residual_us : int;  (** total [Unattributed] time *)
  p_rounds : int;
      (** delivery hops on the path whose message the transaction's
          lineage tags — comparable to E14's round-depth accounting *)
  p_hops : int;  (** all delivery hops walked, tagged or not *)
}

val latency_us : path -> int
(** [p_decide_us - p_submit_us]; equals the segment sum. *)

val explain :
  spans:Obs.Span.event list -> audit:Audit.Event.t list -> path list
(** One path per committed transaction (a decide instant noted
    ["commit"] at its origin site), ordered by (origin, local). The audit
    events must be in log order, as {!Audit.Log.events} returns them. *)

(** {2 Blame aggregation} *)

type blame = {
  b_seg : seg;
  b_txns : int;  (** paths with nonzero time in this segment *)
  b_total_us : int;
  b_mean_us : float;  (** over {e all} paths, zeros included *)
  b_p50_us : int;
  b_p95_us : int;
  b_p99_us : int;  (** nearest-rank percentiles of per-path totals *)
  b_share : float;  (** fraction of summed commit latency *)
}

val blame_table : path list -> blame list
(** One row per {!all_segs} entry, in that order; empty for no paths. *)

val top_slowest : ?k:int -> path list -> path list
(** The [k] (default 5) highest-latency paths, slowest first; ties break
    on (origin, local) so the digest is deterministic. *)

(** {2 Export} *)

val to_json : ?top:int -> path list -> string
(** A JSON document, ["stream":"critpath"], ["schema":1]: the blame table
    plus one row per transaction with its full segment breakdown ([top]
    caps the per-transaction rows to the slowest [top]; the blame table
    always covers every path). [scripts/check_trace.py] validates the
    telescoping and residual invariants against this document. *)

val flow_objects : path -> string list
(** Chrome trace-event flow objects ([ph] "s"/"t"/"f", one id per
    transaction) drawing the critical path as a connected arrow chain
    across site tracks — feed to {!Obs.Export.chrome_trace} via
    [?objects]. Steps land on each segment boundary that changes sites. *)

(** {2 Offline traces} *)

val of_trace_lines :
  string list ->
  (int * Obs.Span.event list * Audit.Event.t list, string) result
(** Split a merged JSONL trace (as [run --trace FILE.jsonl --audit]
    writes) into (site count, span events, audit events); lines of any
    other stream are skipped. Errors on a malformed span or audit line,
    and when the audit schema header is missing: both the critical-path
    walk and the offline audit replay need the audit stream. *)
