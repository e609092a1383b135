(** The paper's evaluation, reproduced as tables.

    One function per experiment in DESIGN.md's index (E1–E14); each returns
    the rendered table(s) that [repdb_sim exper] prints and EXPERIMENTS.md
    records. E15–E17 render their tables from one shared {!saturation}
    sweep. [quick] shrinks the workloads for use inside the test suite;
    the default sizes are what the committed EXPERIMENTS.md numbers come
    from. Everything is seeded and deterministic. *)

val e1_messages : ?quick:bool -> unit -> Stats.Table.t
(** Message complexity per committed update transaction, measured against
    the closed-form counts: the reliable protocol pays a vote round, the
    causal protocol none, the atomic protocol one ordering message. *)

val e2_latency_sites : ?quick:bool -> unit -> Stats.Table.t
(** Commit latency as the number of sites grows. *)

val e3_implicit_ack : ?quick:bool -> unit -> Stats.Table.t
(** The causal protocol's dependence on background traffic, with and
    without the idle-acknowledgment fallback. *)

val e4_aborts : ?quick:bool -> unit -> Stats.Table.t
(** Abort rate versus access skew (contention), including the causal
    protocol's early concurrent-write abort variant. *)

val e5_throughput : ?quick:bool -> unit -> Stats.Table.t
(** Committed throughput versus multiprogramming level. *)

val e6_deadlocks : ?quick:bool -> unit -> Stats.Table.t
(** Deadlock prevention: cycles broken and worst-case latency under a
    cross-conflict workload. *)

val e7_failover : ?quick:bool -> unit -> Stats.Table.t
(** Availability through a crash and a rejoin: per-phase commit counts and
    latency for the broadcast protocols. *)

val e8_readonly : ?quick:bool -> unit -> Stats.Table.t
(** Read-only transactions: local latency, zero aborts, zero messages. *)

val e9_primitives : ?quick:bool -> unit -> Stats.Table.t
(** The primitives themselves: delivery latency and datagrams per broadcast
    for reliable, causal, sequencer-total and Lamport-total. *)

val e10_batched_writes : ?quick:bool -> unit -> Stats.Table.t
(** Ablation: the atomic protocol with streamed write operations (this
    paper, section 5) versus the write set deferred into the commit request
    (the companion work's style) — messages, latency, abort rate. *)

val e11_flooding : ?quick:bool -> unit -> Stats.Table.t
(** Ablation: datagram cost of gossip-relay (flooding) reliable broadcast
    versus plain fan-out, per protocol. *)

val e12_lossy_links : ?quick:bool -> unit -> Stats.Table.t
(** Substrate sensitivity: datagram loss (link-level ARQ retransmission)
    versus commit latency and message cost, per protocol. *)

val e13_phase_breakdown : ?quick:bool -> unit -> Stats.Table.t
(** Where commit latency goes, per protocol: lock-wait, broadcast and
    vote/ack-collection spans at the origin, plus the decide-to-last-apply
    replication lag — percentiles from the span recorder's fixed-bucket
    histograms (EXPERIMENTS.md maps each phase to the paper's claims). *)

val e14_audit_complexity : ?quick:bool -> unit -> Stats.Table.t
(** The audit layer's accounting against the paper's closed-form claims:
    per committed update transaction, broadcasts tagged by its lineage,
    sequencer ordering messages, and broadcast-round depth measured over
    the delivery DAG — all under constant link latency so the measured
    values must {e equal} the analytical counts ([w+1+n] reliable
    broadcasts in two rounds, [w+1] causal in two, [w+1] atomic plus one
    ordering message in one). The last column is the online
    broadcast-contract monitors' verdict for the run. *)

type load_row = {
  load_protocol : string;
  load_batch : int;  (** frame capacity (max_msgs) *)
  load_committed : int;  (** committed inside the measurement window *)
  load_tps : float;
  load_p50_ms : float;
  load_p95_ms : float;
  load_order_per_commit : float;
      (** sequencer order datagrams in the window per committed
          transaction — one frame's worth of assignments travels as one
          datagram, so this drops toward 1/batch for the atomic protocol *)
  load_contract_ok : bool;  (** online broadcast-contract monitors' verdict *)
  load_means : (string * float) list;
      (** windowed mean of each diagnosed resource's site-summed series,
          keyed [evq]/[nic_us]/[delay]/[order]/[waiters]/[outst] *)
}
(** One (protocol, batch size) cell of the saturation sweep: a single run
    feeds its E15 row and its E16 row. *)

val e15_table_of : load_row list -> Stats.Table.t
(** E15, broadcast batching / group commit at saturation: a closed-loop
    load (fixed in-flight population per site, time-windowed measurement)
    under a per-datagram NIC serialization cost, swept over frame
    capacities 1/4/16/64 for the three broadcast protocols. Shows
    committed throughput, p50/p95 commit latency, and the amortized
    sequencer order-datagram cost per committed transaction. *)

val e16_table_of : load_row list -> Stats.Table.t
(** E16, saturation telemetry: per (protocol, batch size) cell of the
    sweep, the measurement-window mean of six resource backlogs — engine
    event queue, NIC serialization backlog, causal delay-queue depth,
    total-order backlog, lock waiters, undecided transactions — plus a
    knee column marking where batching stops paying and which resource
    saturated: per protocol, the first batch size whose tps gain falls
    under 15%, labelled with the resource whose windowed mean grew most
    versus the batch=1 run (denominator floored at 1). *)

type e17_row = {
  e17_protocol : string;
  e17_mode : string;  (** ["isolated"] or ["load"] *)
  e17_batch : int;  (** frame capacity; 1 for the isolated rows *)
  e17_txns : int;  (** committed transactions profiled (whole run) *)
  e17_p50_ms : float;
      (** median critical-path latency over the profiled paths *)
  e17_shares : (string * float) list;
      (** {!Critpath.seg_name} -> fraction of summed commit latency, one
          entry per segment kind in {!Critpath.all_segs} order *)
  e17_dominant : string;  (** segment with the largest total blame *)
  e17_max_residual_us : int;
      (** worst per-transaction unattributed time — ~0 by construction,
          and the test suite asserts it stays under 1 *)
  e17_rounds : int;
      (** tagged delivery hops on the walked path, identical across every
          path of the run (or -1: load rows, where unrelated traffic
          legitimately stands in for acknowledgments) *)
  e17_analytic_rounds : int;  (** E14's closed form; -1 on load rows *)
}

val e17_table_of : e17_row list -> Stats.Table.t
(** E17, critical-path blame decomposition: where each committed
    transaction's latency went, segment by segment ({!Critpath}), across
    load and batch size — with the measured round depth cross-checked
    against E14's closed forms on the isolated runs, and the E16 knee
    resource expected to reappear as the dominant per-transaction segment
    at saturation. *)

type saturation = {
  load_rows : load_row list;  (** E15's and E16's rows *)
  e17_rows : e17_row list;
      (** the isolated rows, then one load row per [load_rows] cell *)
}

val saturation : ?quick:bool -> unit -> saturation
(** The one simulation sweep behind E15, E16 and E17; every cell is a
    windowed {!Runner.run}. Three isolated runs (one client loop on one
    site, constant 1ms links — the per-path tagged hop count must equal
    E14's closed-form round depth: reliable 2, causal 2, atomic 1) feed
    E17's isolated rows. Each (protocol, batch size) cell of the
    saturation grid is a single run with audit, spans and 10ms telemetry
    sampling all on, folded into its load row and its E17 load row.
    Deterministic and pool-size independent like {!all}. *)

val registry :
  ?quick:bool ->
  ?sweep:saturation Lazy.t ->
  unit ->
  (string * (unit -> Stats.Table.t)) list
(** The experiments above, keyed by their DESIGN.md identifiers, in order,
    but not yet run — [repdb_sim exper] selects from this instead of
    duplicating the list. E15, E16 and E17 render from [sweep], forced by
    whichever of them runs first; it defaults to a fresh
    [lazy (saturation ~quick ())], so one registry runs the sweep at most
    once. Pass it to read the rows as well as the tables. *)

val all : ?quick:bool -> unit -> (string * Stats.Table.t) list
(** Every experiment, keyed by its DESIGN.md identifier, in order.
    Simulation runs execute on the {!Parallel} domain pool; the rendered
    tables are byte-identical whatever the pool size (including
    [BCASTDB_JOBS=1]) because each run is a pure function of its spec and
    rows are folded sequentially. *)
