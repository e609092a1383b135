(** Globally unique transaction identifiers.

    A transaction is named by its origin site and a per-site counter. The
    counter doubles as an age: deadlock victim selection aborts the youngest
    transaction, and tie-breaks on site id keep every site's choice
    deterministic. *)

type t = { origin : Net.Site_id.t; local : int }

val make : origin:Net.Site_id.t -> local:int -> t

val compare : t -> t -> int
(** Older first: by [local], ties by [origin]. *)

val equal : t -> t -> bool

val hash : t -> int
(** Equal to [Hashtbl.hash (origin, local)], and allocation-free. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
module Tbl : Hashtbl.S with type key = t
