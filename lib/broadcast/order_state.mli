(** Total-order bookkeeping for the sequencer-based atomic class.

    A [Total]-class message is delivered to the application when three
    conditions hold: it has passed the causal hold-back queue ("arrived"),
    its global sequence number is known (from a sequencer [Order]), and all
    smaller global sequence numbers have been delivered. This module tracks
    that state for one site; it is pure bookkeeping, unit-testable without a
    network. First assignment wins on conflicting orders (conflicts can only
    arise transiently across sequencer failovers; the order-sync protocol in
    {!Endpoint} makes the survivors agree).

    Costs: arrivals and assignments are [Sim.Int_table]s keyed by
    {!Msg_id.key}, slots an array indexed by global sequence number, and
    the arrivals still awaiting an assignment a queue in arrival order.
    [note_arrival], [note_order], [assignment_of], [unassigned_count] and
    [pending_count] cost amortized expected O(1), plus O(1) per message
    returned, and [adopt] that much per assignment merged; none depends on
    the backlog. The exceptions are noted below. Assignments are never pruned: the
    assignment table and the slot array grow with every message ever
    ordered, delivered ones included. *)

type 'a t

type 'a ready = { global_seq : int; id : Msg_id.t; payload : 'a }

val create : unit -> 'a t

val note_arrival : 'a t -> Msg_id.t -> 'a -> 'a ready list
(** The message has passed causal delivery; returns messages now deliverable
    in global order (possibly several, possibly none). A message already
    arrived and not yet delivered is ignored. *)

val note_order : 'a t -> Msg_id.t -> global_seq:int -> 'a ready list
(** Record a sequencer assignment. Duplicate or conflicting assignments are
    ignored (first one wins, on the message and on the slot). An assignment
    below [next_deliver] is kept, though it can no longer deliver.
    @raise Invalid_argument if [global_seq] is negative. *)

val adopt : 'a t -> (Msg_id.t * int) list -> 'a ready list
(** Merge a batch of assignments (order-sync after a failover), each as
    {!note_order} would, then deliver once. *)

val next_deliver : 'a t -> int
(** Next global sequence number this site will deliver (0 initially). *)

val known_assignments : 'a t -> (Msg_id.t * int) list
(** Every assignment this site knows, including delivered ones it remembers;
    used to answer order-sync queries. In {!Msg_id.compare} order.
    O(n log n) in all assignments ever recorded. *)

val max_assigned : 'a t -> int
(** Highest global seq this site has seen assigned; -1 if none. *)

val assignment_of : 'a t -> Msg_id.t -> int option

val unordered_arrivals : 'a t -> Msg_id.t list
(** Arrived messages with no known assignment — a newly elected sequencer
    assigns these after syncing. In arrival order. O(k) for the k
    returned, plus O(1) amortized per arrival assigned since the last
    call. *)

val unassigned_count : 'a t -> int
(** [List.length (unordered_arrivals t)], in O(1). *)

val fast_forward : 'a t -> next_deliver:int -> unit
(** Skip delivery position forward (a joining site starts from its snapshot
    position). Arrivals with a slot below the new position, and those
    slots, are discarded; their assignments are still known. No-op if
    already at or past it. O(next_deliver). *)

val pending_count : 'a t -> int
(** Arrived-but-undelivered messages. O(1). *)
