(** Strict two-phase locking for one site.

    The paper assumes "concurrency control is locally enforced by strict
    two-phase locking at all database sites": locks are held until commit or
    abort. Two write-conflict policies are provided, matching the two
    families of protocols:

    - [Wait]: a conflicting exclusive request queues behind the holders —
      the point-to-point baseline's behaviour, which can deadlock; pair it
      with {!Deadlock}.
    - [No_wait]: a conflicting exclusive request is {e refused} — the
      broadcast protocols' behaviour. Refusal makes the requesting
      transaction's site vote negatively (or send a NACK); because writers
      never wait, every wait-for chain is a single reader-blocked-on-writer
      edge, so deadlock is impossible (the paper's deadlock-prevention
      claim; property-tested).

    Shared requests always queue on conflict (readers are never refused —
    the rule behind "read-only transactions are never aborted").

    Queueing is strict FIFO per key: a shared request behind a queued
    exclusive one waits its turn, so writers are not starved. *)

type key = int

type mode = Shared | Exclusive

type policy = Wait | No_wait

type decision =
  | Granted
  | Queued
  | Refused  (** only exclusive requests under [No_wait] *)

type t

val create :
  policy:policy -> on_grant:(Txn_id.t -> key -> mode -> unit) -> unit -> t
(** [on_grant] fires when a previously queued request is granted by a
    release (never re-entrantly from {!acquire}). *)

val acquire : t -> txn:Txn_id.t -> key -> mode -> decision
(** Request a lock. Re-acquiring a held mode (or [Shared] while holding
    [Exclusive]) is [Granted] idempotently. A [Shared]-to-[Exclusive]
    upgrade is granted iff the transaction is the sole holder and no one is
    queued; otherwise it conflicts per the policy. A transaction keeps at
    most one queue entry per key: re-requesting while queued answers
    [Queued] from the pending entry (escalated in place for a
    [Shared]-to-[Exclusive] change under [Wait], [Refused] under
    [No_wait]) instead of queueing a duplicate. *)

val release_all : t -> Txn_id.t -> unit
(** Drop every lock held or requested by the transaction (commit or abort),
    promoting queued requests; each promotion fires [on_grant]. *)

val clear : t -> unit
(** Drop every held and queued lock without firing [on_grant] — for a
    replica whose transaction state is replaced wholesale (join-time state
    transfer). *)

val holds : t -> txn:Txn_id.t -> key -> mode -> bool

val held_keys : t -> Txn_id.t -> (key * mode) list

val holders : t -> key -> (Txn_id.t * mode) list

val waiters : t -> key -> (Txn_id.t * mode) list
(** In queue order. *)

val held_total : t -> int
(** Total locks currently held across all keys (one per holder entry) —
    the time-series sampler's [db_locks_held] probe. *)

val waiting_total : t -> int
(** Total queued requests across all keys — the sampler's
    [db_lock_waiters] probe. *)

val decisions : t -> decision -> int
(** How many {!acquire} calls have answered this decision since
    {!create}, plus, for [Granted], the queued requests a release
    promoted. {!clear} keeps the counts. Read by the sampler's
    [db_lock_granted] / [db_lock_queued] / [db_lock_refused] delta
    probes. *)

val waits_for_edges : t -> (Txn_id.t * Txn_id.t) list
(** Edges [waiter -> blocker]: each queued transaction waits for every
    incompatible holder and every incompatible transaction queued ahead of
    it. Input to {!Deadlock.find_cycle}. *)

val active_txns : t -> Txn_id.t list
(** Transactions currently holding or waiting, unordered. *)
