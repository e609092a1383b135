(** Time-series telemetry: pull-probes sampled on a simulated-time cadence.

    A sampler holds a set of {e probes} — cheap closures reading a current
    value out of a live layer (event-queue length, delay-queue depth, locks
    held, ...) — and snapshots all of them into one row every [interval] of
    {e simulated} time, driven by an engine-scheduled tick. Because ticks
    are ordinary simulation events, a sampled run is deterministic and the
    recorded series is byte-identical at any {!Parallel} pool size.

    The sampler is also the only metrics store: a layer's event counter
    is a plain [int] field, exported through a [Delta] probe.

    Disabled-mode cost: {!none} is a shared, never-recording sampler; on
    it, {!register} and {!tick} are each a single predictable branch with
    no allocation (the same discipline as {!Recorder.none}, enforced by
    the [--gate-obs] micro-benchmark).

    Probes must all be registered before the first tick — layers register
    at construction time, before the engine runs — so every recorded row
    has one value per probe, in registration order. *)

type t

type kind =
  | Gauge  (** record the probe's value as read *)
  | Delta
      (** the probe reads a cumulative counter; record the increase since
          the previous tick (the first tick is measured from registration
          time), e.g. events processed or minor words allocated *)

val none : t
(** The shared disabled sampler — safe as a default because no operation
    mutates it. *)

val create : interval:Sim.Time.t -> unit -> t
(** An enabled sampler ticking every [interval] of simulated time once
    {!attach}ed. Raises [Invalid_argument] if [interval] is not positive. *)

val enabled : t -> bool
val interval : t -> Sim.Time.t

val register :
  t ->
  name:string ->
  ?labels:(string * string) list ->
  ?kind:kind ->
  (unit -> float) ->
  unit
(** Add a probe ([kind] defaults to [Gauge]; [labels] are kept sorted by
    key). The closure is called only at ticks and at {!final_values} —
    never on any per-event path — so it may allocate. No-op on a disabled
    sampler. Raises [Invalid_argument] after the first tick: probes are a
    construction-time contract, not a mid-run one. *)

val tick : t -> at:Sim.Time.t -> unit
(** Snapshot every probe into one row stamped [at]. Normally driven by
    {!attach}; exposed for tests and for one-shot snapshots. No-op on a
    disabled sampler. *)

val attach : t -> Sim.Engine.t -> unit
(** Start the tick loop: one {!tick} at the engine's current time (as a
    scheduled event, so it runs after everything already scheduled for
    this instant), then one every [interval] forever. Idempotent; no-op on
    a disabled sampler. *)

val probes : t -> (string * (string * string) list) list
(** Registered probes, in registration order — the column order of every
    row. *)

val samples : t -> (Sim.Time.t * float array) list
(** Recorded rows in chronological order; each row has one value per
    probe, in {!probes} order. *)

val final_values : t -> ((string * (string * string) list) * float) list
(** Each probe's {e run-total} value: gauges re-read their closure, delta
    probes report the cumulative increase since registration (not the last
    window's increment — that is {!last_values}). [run --metrics] exports
    these as [probe_<name>_total] gauges. Empty on a disabled sampler. *)

val last_values : t -> ((string * (string * string) list) * float) list
(** Each probe's value in the {e last recorded tick row}: gauges as
    sampled then, delta probes the increase over the final window only.
    [run --metrics] exports these as [probe_<name>_last] gauges, alongside
    the [_total]s. Empty before the first tick or on a disabled sampler. *)

(** {2 Export}

    JSONL schema (version 1): a header line
    [{"stream":"series","schema":1,"interval_us":...,"probes":[...]}]
    naming every probe (with its labels and kind), then one
    [{"stream":"series","ts_us":...,"values":[...]}] line per tick, values
    in header order and printed by {!Export.json_float}, so they read back
    exactly. Validated structurally by [scripts/check_trace.py]. *)

val to_jsonl : t -> string
val to_csv : t -> string
(** Header [ts_us,<probe>,<probe>...] (labels rendered as
    [name{k=v;...}]), then one row per tick, values as
    {!Export.float_repr} prints them. *)

val write_file : t -> path:string -> unit
(** Dispatch on extension: [.csv] gets {!to_csv}, anything else JSONL. *)
