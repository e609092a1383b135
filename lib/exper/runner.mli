(** Closed-loop experiment driver.

    Runs one protocol under one workload on the simulator: [mpl] client
    loops on each client site, each submitting its next transaction when
    the previous one decides. The load ends in one of two ways. By default
    each site stops after a quota of transactions, and the run goes on
    until every transaction has decided (or none has for [drain_limit]).
    With a measurement {!window} there is no quota: clients submit until
    the window closes, and only decisions inside the window are counted.
    Either way a 3 s grace follows, so the replicas quiesce before the
    audit verdict is frozen. Optional Poisson background traffic
    (disjoint keys, so it never conflicts) models "other sites broadcast
    fairly frequently" for the causal protocol's implicit
    acknowledgments; optional crash/recover events drive the
    availability experiment. Fully deterministic per seed. *)

type event =
  | Crash of Net.Site_id.t
  | Recover of Net.Site_id.t
  | Partition of Net.Site_id.t list
      (** cut the listed sites off from the rest; replaces any earlier cut *)
  | Heal  (** remove the partition (stale minority members must rejoin) *)
  | Set_loss of Net.Network.loss option
      (** swap the link-loss model (drop-probability burst on, or back off) *)

type window = {
  warmup : Sim.Time.t;  (** decisions before this are not counted *)
  measure : Sim.Time.t;  (** length of the counted window after warm-up *)
}

val in_window : window -> Sim.Time.t -> bool
(** [warmup <= t < warmup + measure]. *)

type spec = {
  protocol : Repdb.Protocol.id;
  config : Repdb.Config.t;
      (** its [obs], [audit] and [sampler] are replaced by the run's own,
          which the [collect_*] and [sample_every] fields switch on *)
  profile : Workload.profile;
  txns_per_site : int;  (** quota per client site; ignored with a window *)
  window : window option;
      (** [Some w]: run a time-windowed load instead of a quota (see the
          module header) *)
  mpl : int;  (** in-flight population per client site *)
  clients_on : Net.Site_id.t list;
      (** the sites that run clients; the others originate nothing *)
  seed : int;
  background_rate : float option;  (** background txns/sec per site *)
  events : (Sim.Time.t * event) list;  (** failure schedule *)
  drain_limit : Sim.Time.t;
      (** quota runs: give up waiting for stragglers after this *)
  collect_spans : bool;
      (** record transaction lifecycle spans in a fresh {!Obs.Recorder}
          (returned in the result). Off by default — instrumentation then
          costs one branch per event. *)
  collect_audit : bool;
      (** record the message-lineage audit log and run its online
          broadcast-contract monitors in a fresh {!Audit.Log} (returned in
          the result, already finalized). Off by default — same
          one-branch discipline as [collect_spans]. *)
  sample_every : Sim.Time.t option;
      (** snapshot every registered telemetry pull-probe on this
          simulated-time cadence in a fresh {!Obs.Sampler} (returned in the
          result); every layer registers its queue/backlog/lock probes and
          its event counters on it at construction. [None] (default): no
          sampling. *)
}

val spec :
  ?config:Repdb.Config.t ->
  ?profile:Workload.profile ->
  ?txns_per_site:int ->
  ?window:window ->
  ?mpl:int ->
  ?clients_on:Net.Site_id.t list ->
  ?seed:int ->
  ?background_rate:float ->
  ?events:(Sim.Time.t * event) list ->
  ?drain_limit:Sim.Time.t ->
  ?collect_spans:bool ->
  ?collect_audit:bool ->
  ?sample_every:Sim.Time.t ->
  n_sites:int ->
  Repdb.Protocol.id ->
  spec
(** Defaults: the {!Repdb.Config.default} for [n_sites], default workload
    profile, 200 transactions per site and no window, mpl 2, clients on
    every site, seed 42, no background, no events, 30s drain, spans off,
    audit off, sampling off. *)

(** In a windowed run, [committed], [aborted], [latency_ms],
    [ro_latency_ms] and [decision_series] count only foreground decisions
    inside the window, and [elapsed_sec] is the window's length. Every other
    field covers the whole run, warm-up and drain included. *)
type result = {
  protocol_name : string;
  committed : int;
  aborted : int;
  undecided : int;  (** foreground transactions still undecided at the end *)
  aborts_by_reason : (Verify.History.abort_reason * int) list;
      (** foreground aborts over the whole run *)
  latency_ms : Stats.Summary.t;  (** committed update transactions *)
  ro_latency_ms : Stats.Summary.t;  (** committed read-only transactions *)
  elapsed_sec : float;  (** first submission to last decision *)
  throughput_tps : float;  (** committed / elapsed_sec *)
  datagrams : int;
  broadcasts : int;
  per_category : (string * int) list;
  drops_by_category : (string * int) list;
      (** datagrams dropped by the loss model, by message category —
          all zeros unless the run configured {!Net.Network.loss} *)
  deadlocks : int;  (** baseline's detector count; 0 for the others *)
  decision_series : (float * float) list;
      (** per committed update transaction: (decision time in seconds,
          latency in ms), in decision order — the availability experiment
          buckets these around failure events *)
  background_committed : int;
  history : Verify.History.t;  (** every transaction of the run *)
  stores : (Net.Site_id.t * Db.Version_store.t) list;
  recorder : Obs.Recorder.t;
      (** the run's span recorder — disabled unless the spec set
          [collect_spans]; feed {!Obs.Recorder.events} to
          {!Obs.Span_stats.of_events} or {!Obs.Export} *)
  audit : Audit.Log.t;
      (** the run's audit log — disabled unless the spec set
          [collect_audit]; already finalized, so {!Audit.Log.finalize}
          returns the frozen verdict and {!Audit.Log.events} the delivery
          DAG (feed it to {!Audit.Accounting}) *)
  sampler : Obs.Sampler.t;
      (** the run's telemetry sampler — disabled unless the spec set
          [sample_every]; feed it to {!Obs.Sampler.to_jsonl} /
          {!Obs.Sampler.final_values} *)
}

val run : spec -> result

(** {2 Checks over results} *)

val check_execution :
  ?require_all_decided:bool -> ?deadlock_free:bool -> result -> Verify.Check.report
(** The full {!Verify.Check} battery over the run's history and final
    replica states. [deadlock_free] defaults to true except for the
    baseline (whose blocking 2PL legitimately takes deadlock-victim
    aborts); see {!Verify.Check.check_execution} for the fault-tolerant
    reading of the invariants. *)

val one_copy_serializable : result -> bool
val converged : result -> bool
(** Final replica states equal (all sites if no failure events, else the
    sites that were up at the end). *)

val abort_rate : result -> float
(** aborted / decided, foreground transactions only. *)
