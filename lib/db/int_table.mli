(** Hash tables keyed by [int], for the database layer's hot paths.

    Open addressing with linear probing: the hash and the key comparison
    are integer arithmetic inside this module, never a call into the
    runtime's polymorphic hash or compare. The lock table and the version
    store share it.

    A table is created with a [vacant] value that stands for "no entry":
    {!find} returns it for an absent key, so a caller can make it the
    answer for a key never written. It is compared physically and must not
    be stored. Iteration order follows the slots, not insertion. *)

type 'a t

val create : vacant:'a -> 'a t

val find : 'a t -> int -> 'a
(** The key's value, or [vacant]. *)

val replace : 'a t -> int -> 'a -> unit

val remove : 'a t -> int -> unit
(** No-op for an absent key. *)

val clear : 'a t -> unit

val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b

val map : ('a -> 'a) -> 'a t -> 'a t
(** A new table with the same keys, each value passed through [f]. *)
