(** Sample summaries: count, mean, and percentiles. *)

type t

val create : unit -> t

val add : t -> float -> unit

val count : t -> int
val mean : t -> float
(** 0 if empty. *)

val min : t -> float
val max : t -> float

val nth_smallest : t -> int -> float
(** [nth_smallest t k] — the [k]-th smallest sample, counting from 1.
    Raises [Invalid_argument] unless [1 <= k <= count t]. *)

val percentile : t -> float -> float
(** [percentile t q] — the sorted sample at 0-based index
    [round (q * (count t - 1))], so [q = 0] is the minimum and [q = 1] the
    maximum. This is not the textbook nearest rank [ceil (q * count t)]:
    with 4 samples, [percentile t 0.5] is the 3rd smallest, where nearest
    rank takes the 2nd. 0 if empty. Raises [Invalid_argument] outside
    [\[0, 1\]]. *)

val median : t -> float

val to_list : t -> float list
(** Samples in insertion order. *)

val pp : Format.formatter -> t -> unit
(** ["n=… mean=… p50=… p95=… max=…"]. *)
