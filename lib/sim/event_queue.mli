(** Priority queue of timestamped events.

    A binary min-heap keyed by [(time, sequence-number)]. The sequence number
    is assigned at insertion, so events scheduled for the same instant pop in
    insertion order; this tie-break is what makes the whole simulation
    deterministic. Events may be cancelled in O(1) (lazily: cancelled entries
    are dropped when popped).

    A {!chain} is a stream of events that pop in push order. Each push
    takes its sequence number at once, as {!push} would, so every event
    pops exactly when it would have as a {!push}; but only the chain's
    oldest event sits in the heap, in one entry the chain reuses, so a
    chain push allocates nothing once the chain's ring has grown. *)

type 'a t

type handle
(** Identifies a scheduled event for cancellation. *)

val create : unit -> 'a t

val is_empty : 'a t -> bool

val size : 'a t -> int
(** Number of live (non-cancelled) events, chain events included. *)

val push : 'a t -> time:Time.t -> 'a -> handle
(** Schedule an event. *)

val cancel : 'a t -> handle -> unit
(** Cancel a scheduled event. Cancelling an already-popped or
    already-cancelled event is a no-op. Handles are tagged with their
    owning queue; passing a handle to a different queue raises
    [Invalid_argument] rather than silently corrupting that queue's
    {!size} accounting. *)

type 'a chain

val chain : 'a t -> 'a -> 'a chain
(** An empty chain on the queue whose every event carries the given
    value. *)

val push_chain : 'a chain -> time:Time.t -> unit
(** Schedule the chain's next event. Raises [Invalid_argument] if [time]
    is earlier than the chain's previous push. Chain events cannot be
    cancelled. *)

val min_time : 'a t -> Time.t
(** Timestamp of the earliest live event. Raises [Invalid_argument] on an
    empty queue. *)

val take : 'a t -> 'a
(** Remove the earliest live event and return its value, allocating
    nothing; read its time with {!min_time} first. Raises
    [Invalid_argument] on an empty queue. *)

val pop : 'a t -> (Time.t * 'a) option
(** Remove and return the earliest live event, skipping cancelled ones. *)

val peek_time : 'a t -> Time.t option
(** Timestamp of the earliest live event without removing it. *)
