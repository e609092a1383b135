(** Replica state transfer for join-time recovery.

    A snapshot carries a copy of the store — one entry per key — and the
    source site's apply order, both as of the export. Importing installs
    the copy and makes that order the joiner's apply log in the shared
    history, so the verifier sees the joiner's apply sequence as the
    source's, continued. Protocol-specific in-flight transaction state
    rides alongside in each protocol's own snapshot type. *)

type t

val export : Site_core.t -> t
(** Costs O(keys) for the store copy and O(1) for the apply order. The
    source's later applies, and its own later imports, leave the snapshot
    unchanged. *)

val import : Site_core.t -> t -> unit
(** Replace the store and adopt the snapshot's apply order under the
    importing site. *)
