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

val key : t -> int
(** [(seq lsl 6 lor origin) lsl 2 lor class]: the id packed into one
    [int], for [Sim.Int_table]. Injective over ids whose origin is below
    [Site_id.max_sites] and whose [seq] is non-negative and below
    [2{^ 54}]. Not ordered like {!compare}. *)

val of_key : int -> t
(** The id a {!key} packs. *)

val pp : Format.formatter -> t -> unit
val pp_cls : Format.formatter -> cls -> unit

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
