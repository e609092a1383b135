(** Per-run span recorder: the object the protocols are instrumented
    against.

    A recorder holds one run's transaction lifecycle spans. The shared
    {!none} recorder is disabled and never mutated, so it is safe as a
    configuration default across domains; every instrumentation call on it
    is a single branch.

    Span well-formedness is guaranteed by construction: a transaction has
    at most one open phase per site ({!phase_begin} closes the previous
    one at the same instant), {!decide} closes whatever is open before
    emitting its instant, and {!close_dangling} ends the spans of
    transactions the run left undecided — so an exported trace always has
    balanced begin/end pairs. *)

type t

val none : t
(** The disabled recorder. *)

val create : unit -> t

(** {2 Span instrumentation} — all no-ops when disabled. *)

val submit : t -> at:Sim.Time.t -> site:int -> origin:int -> local:int -> unit
(** Instant: the transaction entered the system. *)

val phase_begin :
  t -> at:Sim.Time.t -> site:int -> origin:int -> local:int -> Span.phase -> unit
(** Open a phase span for (txn, site), first closing — at the same
    instant — any phase still open there. *)

val decide :
  t ->
  at:Sim.Time.t ->
  site:int ->
  origin:int ->
  local:int ->
  committed:bool ->
  unit
(** Close any open span, then an instant noted ["commit"] or ["abort"]. *)

val apply : t -> at:Sim.Time.t -> site:int -> origin:int -> local:int -> unit
(** Instant: the write set was installed at [site]. *)

val close_dangling : t -> at:Sim.Time.t -> unit
(** End every still-open span (stranded/undecided transactions) so the
    exported trace balances. Call once when the run is over. *)

val events : t -> Span.event list
(** In emission order (sim time is non-decreasing). *)
