(** Per-origin FIFO hold-back buffer.

    Messages from each origin carry contiguous sequence numbers; this module
    releases them in order, buffering early arrivals and discarding
    duplicates and stale (already-released) copies. Pure bookkeeping — no
    I/O — so it is directly unit-testable. Origins are sites, indexed
    directly: [0 <= origin < Net.Site_id.max_sites]. *)

type 'a t

val create : unit -> 'a t

val expected : 'a t -> origin:Net.Site_id.t -> int
(** Next sequence number that will be released for [origin] (0 initially). *)

type 'a offer_result =
  | Ready of (int * 'a) list
      (** released messages, in sequence order (may include the offered one
          and previously buffered successors) *)
  | Buffered  (** early: held until the gap fills *)
  | Duplicate  (** stale or already buffered: discard *)

val offer : 'a t -> origin:Net.Site_id.t -> seq:int -> 'a -> 'a offer_result

val fast_forward : 'a t -> origin:Net.Site_id.t -> next_seq:int -> (int * 'a) list
(** Jump [origin]'s expected counter to [next_seq] (used when a membership
    change re-bases a site's stream). Buffered messages with [seq >=
    next_seq] that become contiguous are released and returned; older
    buffered messages are discarded. No-op (returning []) if the counter is
    already at or past [next_seq]. *)

val purge : 'a t -> origin:Net.Site_id.t -> unit
(** Drop every buffered message from [origin], leaving the expected counter
    untouched. Used when [origin] leaves the view (see
    {!Delay_queue.purge}). *)

val pending_count : 'a t -> int
(** Total buffered messages across origins. *)
