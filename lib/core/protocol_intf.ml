(** The interface every replica-control protocol implements.

    Four implementations exist: {!Baseline_rowa} (point-to-point ROWA with
    decentralized two-phase commit — the paper's comparison point),
    {!Reliable_proto} (section 3), {!Causal_proto} (section 4) and
    {!Atomic_proto} (section 5). The experiment harness drives them
    uniformly through this signature. The three broadcast protocols share
    one replica shell, {!Bcast_shell}. *)

type outcome = Verify.History.outcome

module type S = sig
  type t

  val name : string
  (** Short identifier used in tables, e.g. ["reliable"]. *)

  val create : Sim.Engine.t -> Config.t -> history:Verify.History.t -> t
  (** Build the replicated system: one replica per site, fully connected. *)

  val submit :
    t ->
    origin:Net.Site_id.t ->
    Op.spec ->
    on_done:(outcome -> unit) ->
    Db.Txn_id.t
  (** Start a transaction at its origin site. [on_done] fires exactly once,
      at the origin, when the transaction's fate is decided there. *)

  val net_stats : t -> Net.Net_stats.t

  val store : t -> Net.Site_id.t -> Db.Version_store.t

  val deadlocks : t -> int
  (** Deadlock cycles broken so far. Constantly 0 for the broadcast
      protocols — they prevent deadlocks by construction (experiment E6
      asserts exactly this). *)

  val supports_failures : bool
  (** Whether {!crash}/{!recover} are meaningful. The baseline's two-phase
      commit blocks on a crashed participant — precisely the weakness the
      broadcast protocols' view mechanism removes — so it reports
      [false]. *)

  val crash : t -> Net.Site_id.t -> unit
  val recover : t -> Net.Site_id.t -> unit

  val partition : t -> Net.Site_id.t list -> unit
  (** Cut the network between the given sites and the rest. Only a majority
      side remains primary and keeps committing; the minority holds. *)

  val heal : t -> unit
  (** Reconnect. Messages lost across the cut are gone; minority members
      must be brought back with {!crash}+{!recover} (state transfer), the
      same way a failed site rejoins. *)

  val set_loss : t -> Net.Network.loss option -> unit
  (** Swap the link-loss model mid-run — the chaos harness's
      drop-probability bursts. Meaningful for every protocol (loss is a
      substrate property, not a failure of the commit protocol). *)
end
