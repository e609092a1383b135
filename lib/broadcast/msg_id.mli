(** Unique broadcast-message identities.

    Every application message is identified by its origin site, its ordering
    class, and a per-origin per-class sequence number. Sequence numbers are
    contiguous, which the FIFO and causal delivery machinery exploits. *)

type cls =
  | Reliable  (** delivered on receipt, FIFO per origin *)
  | Causal    (** delivered in causal order *)
  | Total     (** delivered in a single total order consistent with causal *)

type t = { origin : Net.Site_id.t; cls : cls; seq : int }

val compare : t -> t -> int
val equal : t -> t -> bool

val hash : t -> int
(** A mix of the three fields in plain arithmetic: allocation-free and
    never a call into the runtime's polymorphic hash. *)

val pp : Format.formatter -> t -> unit
val pp_cls : Format.formatter -> cls -> unit

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
module Tbl : Hashtbl.S with type key = t
