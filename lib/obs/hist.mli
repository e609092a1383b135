(** Fixed-bucket latency histograms.

    Buckets are defined by a shared, fixed array of upper bounds (a 1-2-5
    series in milliseconds by default), so two histograms built anywhere in
    a run — or in different runs of the domain pool — always agree on edges
    and can be merged bucket-wise. A value lands in the {e first} bucket
    whose upper bound it does not exceed (upper-inclusive), so a value
    exactly on an edge always lands in the bucket that edge closes; values
    above the last bound land in the overflow bucket.

    Percentiles are reported as the upper bound of the bucket containing
    the requested rank — a deterministic function of the counts alone,
    independent of insertion order, which is what keeps experiment tables
    byte-identical whatever the pool size. *)

type t

val default_bounds : float array
(** 1-2-5 series from 0.01 ms to 10 s, in milliseconds. *)

val create : ?bounds:float array -> unit -> t
(** [bounds] must be strictly increasing and non-empty. *)

val observe : t -> float -> unit

val count : t -> int
val sum : t -> float
val mean : t -> float
(** 0 if empty. *)

val min_value : t -> float
val max_value : t -> float
(** Exact extremes of the observed values; 0 if empty. *)

val bucket_counts : t -> (float * int) list
(** [(upper_bound, count)] per bucket, in bound order; the overflow bucket
    reports [infinity] as its bound. *)

val bucket_index : t -> float -> int
(** The bucket [observe] would place the value in — exposed so tests can
    pin the edge semantics. *)

val percentile : t -> float -> float
(** [percentile t 0.99] — upper bound of the bucket holding the
    nearest-rank sample; the overflow bucket reports the observed maximum.
    0 if empty. Raises [Invalid_argument] outside [\[0, 1\]]. *)

val merge_into : src:t -> dst:t -> unit
(** Bucket-wise sum; commutative and associative, so a fold over
    per-worker histograms is order-insensitive. Raises [Invalid_argument]
    if the bounds differ. *)
