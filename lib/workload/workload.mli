(** Transaction workload generation.

    Deterministic given the RNG: profiles describe the database size, the
    transaction shape (reads then writes, per the paper's model), the
    read-only fraction, and access skew (Zipf over the key space — theta 0
    is uniform, higher concentrates on a hot spot, the contention knob of
    experiment E4). *)

type profile = {
  n_keys : int;  (** database size *)
  reads_per_txn : int;
  writes_per_txn : int;  (** for update transactions *)
  ro_fraction : float;  (** probability a transaction is read-only *)
  zipf_theta : float;  (** access skew; 0 = uniform *)
  value_bound : int;  (** written values are drawn from [\[1, value_bound\]] *)
}

val default : profile
(** 1000 keys, 3 reads + 3 writes, 20% read-only, uniform access. *)

type gen

val create : profile -> rng:Sim.Rng.t -> gen
(** Raises [Invalid_argument] if [n_keys <= 0] or either per-transaction
    count is negative. *)

val next : gen -> Repdb.Op.spec
(** The next transaction. Keys within one transaction are distinct. *)

val profile_of : gen -> profile

(** {2 Special-purpose workloads} *)

val cross_conflict_pair :
  profile -> rng:Sim.Rng.t -> Repdb.Op.spec * Repdb.Op.spec
(** Two transactions in the classic deadlock shape — each reads the key the
    other writes — submitted together they force a waits-for cycle under a
    blocking protocol (experiment E6). *)

val single_write : key:int -> value:int -> Repdb.Op.spec
(** A one-write blind update; used as background traffic when measuring the
    causal protocol's implicit-acknowledgment delay (experiment E3). *)
