(** Span-instrumentation shims shared by the protocols.

    Thin wrappers over {!Obs.Recorder} that take a {!Db.Txn_id.t} instead
    of the raw (origin, local) pair. Every call is a no-op on a disabled
    recorder. The phase vocabulary and the per-protocol instrumentation
    points are documented in DESIGN.md ("Observability"). *)

val submit :
  Obs.Recorder.t -> now:Sim.Time.t -> site:int -> Db.Txn_id.t -> unit

val phase :
  Obs.Recorder.t ->
  now:Sim.Time.t ->
  site:int ->
  Db.Txn_id.t ->
  Obs.Span.phase ->
  unit

val decide :
  Obs.Recorder.t ->
  now:Sim.Time.t ->
  site:int ->
  Db.Txn_id.t ->
  committed:bool ->
  unit

val apply :
  Obs.Recorder.t -> now:Sim.Time.t -> site:int -> Db.Txn_id.t -> unit
