type handle = Event_queue.handle

type t = {
  queue : (unit -> unit) Event_queue.t;
  mutable clock : Time.t;
  mutable processed : int;
  root_rng : Rng.t;
}

exception Stop

let create ?(seed = 42) () =
  {
    queue = Event_queue.create ();
    clock = Time.zero;
    processed = 0;
    root_rng = Rng.create ~seed;
  }

let now t = t.clock
let rng t = t.root_rng

let schedule_at t ~time callback =
  if Time.( < ) time t.clock then invalid_arg "Engine.schedule_at: in the past";
  Event_queue.push t.queue ~time callback

let schedule t ~delay callback =
  schedule_at t ~time:(Time.add t.clock delay) callback

let cancel t handle = Event_queue.cancel t.queue handle

type channel = { owner : t; chain : (unit -> unit) Event_queue.chain }

let channel t callback = { owner = t; chain = Event_queue.chain t.queue callback }

let push ch ~time =
  if Time.( < ) time ch.owner.clock then invalid_arg "Engine.push: in the past";
  Event_queue.push_chain ch.chain ~time

let pending t = Event_queue.size t.queue
let processed t = t.processed

let step t =
  if Event_queue.is_empty t.queue then false
  else begin
    t.clock <- Event_queue.min_time t.queue;
    let callback = Event_queue.take t.queue in
    t.processed <- t.processed + 1;
    callback ();
    true
  end

let run t ?(max_events = max_int) () =
  let rec loop remaining =
    if remaining > 0 then begin
      match step t with
      | true -> loop (remaining - 1)
      | false -> ()
    end
  in
  try loop max_events with Stop -> ()

let run_until t deadline =
  let rec loop () =
    if
      (not (Event_queue.is_empty t.queue))
      && Time.( <= ) (Event_queue.min_time t.queue) deadline
    then begin
      ignore (step t);
      loop ()
    end
  in
  (try loop () with Stop -> ());
  if Time.( < ) t.clock deadline then t.clock <- deadline
