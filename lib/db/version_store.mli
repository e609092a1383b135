(** Newest-value key-value storage for one database replica.

    Keys and values are integers (the paper's model is agnostic to content).
    Every committed write set is applied atomically at the next local commit
    index. Each key holds one version: its newest value, the transaction
    that wrote it and the commit index that wrote it. No older version is
    kept, because no read needs one: every read runs at the replica's
    current commit index. That includes the atomic-broadcast protocol's
    read-only transactions, which read synchronously at their origin's
    current index — a prefix of the shared total order, so a consistent
    snapshot that never blocks or aborts. The store thus holds O(keys)
    state, and an overwrite allocates nothing.

    The writer of each version lets the verifier reconstruct reads-from
    relationships for the one-copy serialization graph.

    Unwritten keys read as 0, so the database is logically total over any
    key range. *)

type key = int
type value = int

type t

val create : unit -> t

val commit_index : t -> int
(** Number of write sets applied so far. Index [i] names the state after
    the first [i] applications. *)

val apply : t -> ?writer:Txn_id.t -> (key * value) list -> int
(** Atomically apply a write set; returns the new commit index. A key
    written twice in one set keeps the later value. An empty write set
    still advances the index (keeps indices aligned with commit events). *)

val read_latest : t -> key -> value

val version_of : t -> key -> int
(** Commit index that last wrote the key (0 if never written). The
    certification step of the atomic-broadcast protocol compares these. *)

val writer_of : t -> key -> Txn_id.t option
(** Transaction that last wrote the key, if any (and if it was recorded). *)

val keys : t -> key list
(** Keys ever written, ascending — for replica-convergence checks. *)

val fingerprint : t -> int
(** Order-insensitive digest of the latest state; equal fingerprints and
    equal [keys] imply equal replicas with high probability (used by
    convergence checks and tests). *)

type dump

val snapshot : t -> dump
(** A copy of the store — one entry per key and the commit index — for
    join-time state transfer. Later applies do not change it. *)

val restore : dump -> t
(** A fresh store holding the dump's state; applies to it do not change
    the dump. *)
