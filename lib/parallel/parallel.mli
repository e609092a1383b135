(** Fixed-size domain pool for embarrassingly parallel experiment runs.

    The pool is created lazily on the first {!map} that can use it and is
    reused by every later call (spawning domains is costly, so the workers
    live for the whole process). Pool size defaults to
    [Domain.recommended_domain_count ()], can be pinned with the
    [BCASTDB_JOBS] environment variable, and overridden programmatically
    with {!set_jobs}. A size of 1 bypasses the pool entirely: [map] then
    runs on the calling domain, which is the debugging escape hatch
    ([BCASTDB_JOBS=1]).

    Determinism: [map] guarantees nothing about *execution* order across
    domains, but the result list always matches the input order, so callers
    whose [f] is a pure function of its argument (every [Runner.run] is:
    own engine, own RNG stream, own history) observe output identical to
    [List.map f].

    Intended use is one coordinating domain issuing [map] calls; [map]
    called from inside a worker (a nested map) degrades to sequential
    execution rather than deadlocking. *)

val max_jobs : int
(** 128, the most domains OCaml 5.1 can run at once. *)

val jobs : unit -> int
(** Effective parallelism the next {!map} will use: the {!set_jobs}
    override if any, else [BCASTDB_JOBS] (when an integer from 1 to
    {!max_jobs}), else [Domain.recommended_domain_count ()]. Always at
    least 1. *)

val set_jobs : int option -> unit
(** [set_jobs (Some n)] pins the pool size to [n] (clamped to >= 1),
    tearing down any existing pool of a different size; [set_jobs None]
    reverts to the environment/default resolution. Meant for tests and
    command-line [--jobs] flags. *)

val map : 'a list -> f:('a -> 'b) -> 'b list
(** [map xs ~f] applies [f] to every element, running calls on the domain
    pool, and returns the results in input order. The calling domain
    participates in the work, so a pool of size [j] uses [j - 1] spawned
    domains. If any application raises, the first such exception (in input
    order) is re-raised with its backtrace after all started applications
    have finished; with fewer than two elements or [jobs () = 1] this is
    exactly [List.map f xs]. *)

val shutdown : unit -> unit
(** Join the pool's domains (idempotent). Registered via [at_exit]
    automatically; exposed for tests that want a cold pool. *)
