(** Deterministic pseudo-random numbers (splitmix64).

    Every stochastic component of the simulator draws from its own [Rng.t],
    usually obtained with {!split}, so adding a new consumer never perturbs
    the stream seen by existing ones. *)

type t

val create : seed:int -> t

val split : t -> t
(** A new generator whose stream is independent of (but a pure function of)
    the parent's current state. Advances the parent. *)

val copy : t -> t

val bits64 : t -> int64
(** 64 uniformly random bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument] if
    [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val uniform_int : t -> lo:int -> hi:int -> int
(** Uniform in the inclusive range [\[lo, hi\]]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean (> 0). *)

val zipf : t -> n:int -> theta:float -> int
(** Zipf-like draw in [\[0, n)]: item rank [k] has probability proportional
    to [1 / (k+1)^theta]. [theta = 0] is uniform; larger skews harder.
    Uses the standard inverse-CDF over precomputed... no precomputation:
    rejection-free inversion by partial sums is O(n), so callers that draw
    repeatedly should use {!Zipf.create} instead. *)

module Zipf : sig
  type gen

  val create : n:int -> theta:float -> gen
  (** Precomputes the CDF once, O(n) space, when [theta <> 0]; a uniform
      generator ([theta = 0]) keeps only [n]. *)

  val index : gen -> float -> int
  (** The item a uniform [u] in [\[0, 1)] selects: the first rank [k] whose
      CDF entry is [>= u]. With [theta = 0] the entries are
      [float (k+1) /. float n], and the rank is computed from [u] in O(1),
      equal to a search of those entries. *)

  val draw : gen -> t -> int
  (** [index gen (float t 1.0)]: O(log n) per draw, O(1) when
      [theta = 0]. *)
end
