(** Hash tables keyed by [int], for the simulation's hot paths.

    Open addressing with linear probing: the hash and the key comparison
    are integer arithmetic inside this module, never a call into the
    runtime's polymorphic hash or compare; a lookup allocates nothing,
    and an insert only when the table grows. It lives in [sim] so that
    every layer shares it: the lock table and the version store ([db]),
    the total-order bookkeeping ([broadcast]), the execution history
    ([verify]), and the per-transaction state of the protocol shell,
    [Site_core] and the causal protocol ([repdb]). Transaction and
    message ids enter it through their packed keys, [Db.Txn_id.key] and
    [Broadcast.Msg_id.key].

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

val length : 'a t -> int
(** The number of keys bound, in O(1). *)

val clear : 'a t -> unit

val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b

val map : ('a -> 'a) -> 'a t -> 'a t
(** A new table with the same keys, each value passed through [f]. *)
