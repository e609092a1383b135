(** Execution histories of replicated-database runs.

    The protocols under test record what happened — who read which version,
    who wrote what, how each transaction ended, and in which order each site
    applied committed write sets. {!Serialization} and {!Convergence} judge
    the history afterwards. Recording is centralized (one recorder per run):
    the simulator is a single process, so this is an omniscient observer,
    not a distributed component. *)

type key = int
type value = int

type abort_reason =
  | Write_conflict  (** refused lock / negative vote / NACK *)
  | Certification  (** stale read set at an atomic commit point *)
  | Deadlock_victim
  | View_change
  | Timeout

type outcome = Committed | Aborted of abort_reason

val pp_outcome : Format.formatter -> outcome -> unit

type read_event = { read_key : key; read_from : Db.Txn_id.t option }
(** [read_from = None] means the initial (unwritten) version. *)

type txn_record = {
  txn : Db.Txn_id.t;
  origin : Net.Site_id.t;
  read_only : bool;
  reads : read_event list;  (** in execution order *)
  writes : (key * value) list;
  outcome : outcome option;  (** [None] if still undecided at end of run *)
}

type t

val create : unit -> t

val begin_txn : t -> Db.Txn_id.t -> origin:Net.Site_id.t -> unit

val record_read : t -> Db.Txn_id.t -> key -> from:Db.Txn_id.t option -> unit

val record_writes : t -> Db.Txn_id.t -> (key * value) list -> unit

val record_outcome : t -> Db.Txn_id.t -> outcome -> unit
(** First outcome wins; later calls for the same transaction are ignored
    (a transaction decides once). *)

val record_apply : t -> site:Net.Site_id.t -> Db.Txn_id.t -> unit
(** A site applied the transaction's write set (its local commit). *)

val reset_applies : t -> site:Net.Site_id.t -> unit
(** Forget a site's apply log. *)

type apply_log
(** One site's apply log at one moment. *)

val apply_log : t -> site:Net.Site_id.t -> apply_log
(** The site's apply log as it stands, in O(1). Later applies at the site,
    and later adoptions by it, leave the returned log unchanged. *)

val adopt_apply_log : t -> site:Net.Site_id.t -> apply_log -> unit
(** Make the given log the site's apply log, in place of its own; an empty
    one forgets the site, as {!reset_applies} does. Join-time state
    transfer: the joiner discards its pre-crash state and takes on the
    store, and so the apply order, of its snapshot's source as of the
    export. *)

(** {2 Inspection} *)

val txns : t -> txn_record list
(** All transactions, in begin order. *)

val committed : t -> txn_record list
val aborted : t -> txn_record list
val undecided : t -> txn_record list

val find : t -> Db.Txn_id.t -> txn_record option

val apply_order : t -> site:Net.Site_id.t -> Db.Txn_id.t list
(** Commit-application order at one site, oldest first. *)

val sites_applied : t -> Net.Site_id.t list

val count_outcomes : t -> int * int * int
(** (committed, aborted, undecided) *)
