(** Database site identifiers.

    Sites are numbered [0 .. n-1] within a simulation. A thin abstraction
    over [int] that provides comparison, printing and a site set, so call
    sites read as what they are. *)

type t = int

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val max_sites : int
(** The most sites a simulation may have: [Sys.int_size] (63 on 64-bit
    hosts), one bit of a {!Set.t} each. *)

val all : n:int -> t list
(** [all ~n] is [\[0; ...; n-1\]]. *)

(** Sets of sites as one bit per site in an [int]. Only {!Set.elements}
    and {!Set.min_elt_opt} allocate (their results); iteration visits sites
    in increasing order. *)
module Set : sig
  type elt = t
  type t

  val empty : t

  val add : elt -> t -> t
  (** Raises [Invalid_argument] unless [0 <= site < max_sites]. *)

  val remove : elt -> t -> t
  val mem : elt -> t -> bool

  val of_list : elt list -> t
  (** Raises [Invalid_argument] as {!add} does. *)

  val elements : t -> elt list
  (** In increasing order. *)

  val min_elt_opt : t -> elt option
  val cardinal : t -> int
  val equal : t -> t -> bool
  val subset : t -> t -> bool
  val disjoint : t -> t -> bool

  val exists : (elt -> bool) -> t -> bool
  (** Applies the predicate in increasing site order and stops at the first
      [true]. *)

  val for_all : (elt -> bool) -> t -> bool
  (** Applies the predicate in increasing site order and stops at the first
      [false]. *)
end
