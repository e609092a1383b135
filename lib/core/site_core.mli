(** Per-site runtime shared by every protocol.

    Owns one replica: the store, the strict-2PL lock manager, pending
    write buffers (updates are buffered from delivery until commit —
    strictness), and the continuations of transactions waiting on read
    locks. The baseline uses it with the [Wait] policy, the reliable- and
    causal-broadcast protocols with [No_wait]. The atomic protocol takes no
    locks: it uses only the store and the write buffers. *)

type t

val create :
  ?sampler:Obs.Sampler.t ->
  site:Net.Site_id.t ->
  policy:Db.Lock_manager.policy ->
  history:Verify.History.t ->
  unit ->
  t
(** [sampler] (default disabled) gets the per-site [db_locks_held] /
    [db_lock_waiters] gauges and the [db_lock_granted] /
    [db_lock_queued] / [db_lock_refused] deltas
    ({!Db.Lock_manager.decisions}). *)

val site : t -> Net.Site_id.t
val store : t -> Db.Version_store.t
val locks : t -> Db.Lock_manager.t
val history : t -> Verify.History.t

val replace_store : t -> Db.Version_store.t -> unit
(** Install a transferred snapshot (join-time state transfer). *)

(** {2 Read phase} *)

val run_reads :
  t ->
  txn:Db.Txn_id.t ->
  keys:Op.key list ->
  on_done:((Op.key * Op.value) list -> unit) ->
  unit
(** Acquire shared locks and read, key by key, in order; waits (resuming on
    lock grant) as needed — shared requests are never refused. [on_done]
    receives the read results and each read is recorded in the history with
    the transaction it read from. If the transaction is aborted while
    waiting ({!cancel_waits}), the continuation is dropped. *)

val acquire_write :
  t ->
  txn:Db.Txn_id.t ->
  Op.key ->
  on_granted:(unit -> unit) ->
  Db.Lock_manager.decision
(** Request an exclusive lock. On [Granted] the caller proceeds now (the
    callback does not fire); on [Queued] (Wait policy) the callback fires at
    grant time; on [Refused] (No_wait policy) nothing is registered. *)

(** {2 Write buffering} *)

val buffer_write : t -> txn:Db.Txn_id.t -> Op.key -> Op.value -> unit
(** Remember a delivered-but-uncommitted write. Later writes by the same
    transaction to the same key supersede earlier ones. *)

val buffered_writes : t -> txn:Db.Txn_id.t -> (Op.key * Op.value) list
(** Current buffer, in first-write order with last-wins values. *)

val buffered_keys : t -> txn:Db.Txn_id.t -> Op.key list
(** The keys of {!buffered_writes}, in the same order. *)

val buffered_txns : t -> Db.Txn_id.t list
(** Every transaction with a write buffer. *)

val drop_buffer : t -> txn:Db.Txn_id.t -> unit
(** Discard the transaction's buffer; locks and waits are untouched. *)

(** {2 Termination} *)

val apply_writes : t -> txn:Db.Txn_id.t -> (Op.key * Op.value) list -> unit
(** Apply a write set to the store and record the apply in the history.
    Touches no lock and no buffer. *)

val apply_commit : t -> txn:Db.Txn_id.t -> unit
(** {!apply_writes} the buffer, release all locks (promoting waiters) and
    forget the transaction locally. *)

val abort_local : t -> txn:Db.Txn_id.t -> unit
(** Discard the buffer, drop any waiting continuations, release locks. *)

val forget : t -> txn:Db.Txn_id.t -> unit
(** Drop bookkeeping without touching locks (read-only local commit). *)

val reset : t -> unit
(** Forget every transaction: empty the lock table, the waiting
    continuations and the write buffers (join-time state transfer). *)
