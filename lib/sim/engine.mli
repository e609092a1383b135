(** Discrete-event simulation engine.

    A single-threaded event loop over a {!Event_queue}. Callbacks scheduled
    for the same instant run in scheduling order, so a run with a fixed seed
    is fully reproducible. Callbacks may schedule further events. *)

type t

type handle = Event_queue.handle
(** Cancellation handle for a scheduled callback. *)

val create : ?seed:int -> unit -> t
(** A fresh engine at time {!Time.zero}. [seed] (default 42) seeds the root
    RNG from which components should {!Rng.split}. *)

val now : t -> Time.t
(** Current simulated time. *)

val rng : t -> Rng.t
(** The engine's root RNG. Components should [Rng.split] it at setup time. *)

val schedule : t -> delay:Time.t -> (unit -> unit) -> handle
(** Run a callback [delay] after the current time. *)

val schedule_at : t -> time:Time.t -> (unit -> unit) -> handle
(** Run a callback at an absolute time, which must not be in the past. *)

val cancel : t -> handle -> unit

(** {2 FIFO channels} *)

type channel
(** A stream of events that fire in the order they were pushed, such as a
    network link's arrivals. Each push takes its place in the [(time,
    sequence-number)] order at once, exactly as {!schedule_at} would, but
    only the channel's oldest pending event occupies the event queue, and a
    push allocates nothing once the channel has grown to its backlog. *)

val channel : t -> (unit -> unit) -> channel
(** An empty channel whose every event runs the given callback. *)

val push : channel -> time:Time.t -> unit
(** Schedule the channel's next event. Raises [Invalid_argument] if [time]
    is in the past or earlier than the channel's previous push. *)

val pending : t -> int
(** Number of scheduled, uncancelled events, channel events included. *)

val processed : t -> int
(** Number of callbacks run since creation — with {!pending}, the raw
    material for event-rate telemetry probes. *)

exception Stop
(** Raise from a callback to stop {!run} / {!run_until} immediately. *)

val run : t -> ?max_events:int -> unit -> unit
(** Process events until the queue is empty, [max_events] callbacks have run,
    or a callback raises {!Stop}. *)

val run_until : t -> Time.t -> unit
(** Process events with timestamp [<=] the given time, then advance the
    clock to exactly that time. *)

val step : t -> bool
(** Process a single event. Returns [false] if the queue was empty. *)
