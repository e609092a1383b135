(** Globally unique transaction identifiers.

    A transaction is named by its origin site and a per-site counter. The
    counter doubles as an age: deadlock victim selection aborts the youngest
    transaction, and tie-breaks on site id keep every site's choice
    deterministic. *)

type t = { origin : Net.Site_id.t; local : int }

val make : origin:Net.Site_id.t -> local:int -> t
(** Raises [Invalid_argument] unless [0 <= origin < Site_id.max_sites] and
    [local >= 0], the ranges in which {!key} is injective. *)

val compare : t -> t -> int
(** Older first: by [local], ties by [origin]. *)

val equal : t -> t -> bool

val key : t -> int
(** [local lsl 6 lor origin]: the id packed into one [int], for
    [Sim.Int_table] and integer-keyed maps. Distinct ids built by {!make}
    have distinct keys, and [Int.compare (key a) (key b) = compare a b].
    A record built directly, outside those ranges, has no such
    guarantee. *)

val hash : t -> int
(** Equal to [Hashtbl.hash (origin, local)], and allocation-free. It must
    stay that tuple's hash: {!Tbl}'s iteration order follows it, and the
    reliable protocol's participant table (a {!Tbl}) sets, through that
    order, the order of its view-change vote recasts and snapshot relocks,
    and so the simulated events. Re-keying that table is a deliberate
    change of those events, not a refactor. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
module Tbl : Hashtbl.S with type key = t
