(** The replica every broadcast protocol runs, less its commit rule.

    The paper's three protocols share one replica: strict two-phase locking
    at every site ({!Site_core}) and read-one/write-all over one broadcast
    group. They differ only in how the commit decision is collected. This
    module owns everything else, once: building the group and the sites,
    wiring the endpoint hooks, the [proto_outstanding] probe, the
    {!Protocol_intf.S} accessors and failure functions, the submission
    prologue (including the reject at a site that cannot take
    transactions), answering the client, the locking read phase, and
    re-locking a snapshot's in-flight writes.

    A protocol supplies its payload type ['p], its per-transaction origin
    state ['o] and its per-site state ['s], plus its delivery handler,
    view-change rule and snapshot contents. *)

type outcome = Protocol_intf.outcome

type 'o origin = { on_done : outcome -> unit; state : 'o }
(** An undecided transaction at its origin: the client's callback and the
    protocol's own origin-side state. *)

type ('p, 'o, 's) site = {
  core : Site_core.t;
  ep : 'p Broadcast.Endpoint.t;
  orig : 'o origin option Sim.Int_table.t;  (** keyed by [Db.Txn_id.key] *)
  mutable next_local : int;
  proto : 's;
}

type ('p, 'o, 's) t = {
  engine : Sim.Engine.t;
  config : Config.t;
  history : Verify.History.t;
  group : 'p Broadcast.Endpoint.group;
  sites : ('p, 'o, 's) site array;
}

val create :
  Sim.Engine.t ->
  Config.t ->
  history:Verify.History.t ->
  classify:('p -> string) ->
  proto:(unit -> 's) ->
  deliver:(('p, 'o, 's) t -> ('p, 'o, 's) site -> 'p Broadcast.Endpoint.delivery -> unit) ->
  on_view:(('p, 'o, 's) t -> ('p, 'o, 's) site -> Broadcast.View.t -> unit) ->
  export:(('p, 'o, 's) site -> 'p) ->
  install:(('p, 'o, 's) t -> ('p, 'o, 's) site -> 'p -> unit) ->
  ('p, 'o, 's) t
(** One endpoint group over [config], one no-wait {!Site_core} per site
    with per-site state [proto ()], and the endpoint hooks. [export]
    builds a join snapshot at the coordinator; [install] replaces a
    joiner's state with one, after the shell has dropped the joiner's
    origin records and emptied its lock table, lock waits and write
    buffers ({!Site_core.reset}). *)

val submit :
  ('p, 'o, 's) t ->
  origin:Net.Site_id.t ->
  on_done:(outcome -> unit) ->
  'o ->
  (('p, 'o, 's) site -> Db.Txn_id.t -> unit) ->
  Db.Txn_id.t
(** [submit t ~origin ~on_done state start] names a new transaction,
    begins it in the history and opens its span. A site that is down or
    still joining rejects it at once: [on_done] gets [Aborted View_change]
    before [submit] returns. Otherwise the transaction is recorded at its
    origin with [state] and [start] runs it. *)

val finish_at_origin :
  ('p, 'o, 's) t -> ('p, 'o, 's) site -> Db.Txn_id.t -> outcome -> unit
(** Record the outcome and answer the client, if [site] is the
    transaction's origin and has not answered yet; otherwise nothing. *)

val decide :
  ('p, 'o, 's) t -> ('p, 'o, 's) site -> Db.Txn_id.t -> outcome -> unit
(** A site has decided an update transaction (and applied it, if
    committed): close its span there, then {!finish_at_origin}. *)

val commit_read_only :
  ('p, 'o, 's) t -> ('p, 'o, 's) site -> Db.Txn_id.t -> unit
(** Commit a read-only transaction at its origin: close its span and
    answer the client. Nothing is applied or broadcast. *)

val phase :
  ('p, 'o, 's) t ->
  ('p, 'o, 's) site ->
  Db.Txn_id.t ->
  Obs.Span.phase ->
  unit
(** Begin a span phase of the transaction at this site. *)

val locking_reads :
  ('p, 'o, 's) t ->
  ('p, 'o, 's) site ->
  Db.Txn_id.t ->
  Op.spec ->
  broadcast:((Op.key * Op.value) list -> unit) ->
  unit
(** The read phase of the locking protocols: read under shared locks
    (waiting as needed), resolve the write set, then either commit a
    read-only transaction locally — no broadcast, never aborted — or open
    the broadcast phase and pass the write set to [broadcast]. *)

val relock :
  ('p, 'o, 's) site ->
  txn:Db.Txn_id.t ->
  refused:bool ->
  (Op.key * Op.value) list ->
  bool
(** Re-buffer a snapshot's in-flight writes at a joiner and, unless the
    snapshot peer had [refused] one of them, re-acquire their exclusive
    locks. Granted writes are mutually conflict-free, so import order
    cannot matter. Returns whether the transaction now counts as refused
    here. *)

val atxn : Db.Txn_id.t -> int * int
(** The transaction tag of an audit-lineage send. *)

val majority : ('p, 'o, 's) t -> int
(** A majority of all sites, live or not. *)

(** {2 The shared part of {!Protocol_intf.S}} *)

module Ops : sig
  val net_stats : ('p, 'o, 's) t -> Net.Net_stats.t
  val store : ('p, 'o, 's) t -> Net.Site_id.t -> Db.Version_store.t
  val deadlocks : ('p, 'o, 's) t -> int
  val supports_failures : bool
  val crash : ('p, 'o, 's) t -> Net.Site_id.t -> unit
  val recover : ('p, 'o, 's) t -> Net.Site_id.t -> unit
  val partition : ('p, 'o, 's) t -> Net.Site_id.t list -> unit
  val heal : ('p, 'o, 's) t -> unit
  val set_loss : ('p, 'o, 's) t -> Net.Network.loss option -> unit
end
