(* Test oracle: the network as it was when every datagram was scheduled as
   its own engine event, with its own callback closure and timing record.
   The link rings of [Net.Network] must reproduce its deliveries, wire
   timestamps, engine event counts and message accounting exactly (see the
   differential property in test_net.ml). *)

open Net

type loss = { drop_probability : float; rto : Sim.Time.t }

type rx_timing = {
  rx_sent : Sim.Time.t;
  rx_depart : Sim.Time.t;
  rx_arrive : Sim.Time.t;
}

type 'm t = {
  engine : Sim.Engine.t;
  n : int;
  latency : Latency.t;
  classify : 'm -> string;
  tx_time : Sim.Time.t;
  mutable loss : loss option;
  rng : Sim.Rng.t;
  handlers : (src:Site_id.t -> 'm -> unit) option array;
  up : bool array;
  (* NIC serialization: when [tx_time] is non-zero, each outgoing
     non-self datagram occupies the sender's interface for [tx_time]
     before it enters the link — the per-site transmit clock tracks when
     the interface frees up. Zero (the default) keeps the interface
     infinitely fast and this array untouched. *)
  tx_clock : Sim.Time.t array;
  (* FIFO guarantee: next admissible delivery time per ordered pair,
     indexed [src * n + dst]. *)
  link_clock : Sim.Time.t array;
  mutable partition_group : Site_id.Set.t option;
  stats : Net_stats.t;
  (* scheduled-but-undelivered datagrams, for telemetry probes *)
  mutable in_flight : int;
  (* timestamps of the datagram currently being handed to a handler;
     [Some] only for the dynamic extent of the handler call *)
  mutable rx : rx_timing option;
}

let validate_loss ~who = function
  | Some { drop_probability = p; _ } when p < 0.0 || p >= 1.0 ->
    invalid_arg (who ^ ": drop_probability must be in [0, 1)")
  | Some _ | None -> ()

(* Self-delivery delay: strictly positive, so a site's message to itself is
   asynchronous like everything else. *)
let loopback = Sim.Time.of_us 10

let create engine ~n ~latency ?(classify = fun _ -> "msg")
    ?(tx_time = Sim.Time.zero) ?loss () =
  if n <= 0 then invalid_arg "Network.create: n <= 0";
  validate_loss ~who:"Network.create" loss;
  {
    engine;
    n;
    latency;
    classify;
    tx_time;
    loss;
    rng = Sim.Rng.split (Sim.Engine.rng engine);
    handlers = Array.make n None;
    up = Array.make n true;
    link_clock = Array.make (n * n) Sim.Time.zero;
    partition_group = None;
    stats = Net_stats.create ();
    tx_clock = Array.make n Sim.Time.zero;
    in_flight = 0;
    rx = None;
  }

let engine t = t.engine
let n_sites t = t.n
let sites t = Site_id.all ~n:t.n
let stats t = t.stats
let in_flight t = t.in_flight
let rx_timing t = t.rx

(* Telemetry probes over the link/NIC clocks: called only on sampling
   ticks, never on the send hot path, so an O(n^2) scan is fine. *)
let busy_links t =
  let now = Sim.Engine.now t.engine in
  let k = ref 0 in
  Array.iter
    (fun at -> if Sim.Time.compare at now > 0 then incr k)
    t.link_clock;
  !k

let tx_backlog_us t =
  let now = Sim.Engine.now t.engine in
  Array.fold_left
    (fun acc free ->
      if Sim.Time.compare free now > 0 then
        acc + Sim.Time.to_us (Sim.Time.diff free now)
      else acc)
    0 t.tx_clock

let register_probes t sampler =
  let gauge name read =
    Obs.Sampler.register sampler ~name (fun () -> float_of_int (read t))
  in
  gauge "net_in_flight" in_flight;
  gauge "net_busy_links" busy_links;
  gauge "net_tx_backlog_us" tx_backlog_us;
  Obs.Sampler.register sampler ~name:"net_drops" ~kind:Obs.Sampler.Delta
    (fun () -> float_of_int (Net_stats.drops t.stats))

let set_handler t site handler =
  if site < 0 || site >= t.n then invalid_arg "Network.set_handler: bad site";
  t.handlers.(site) <- Some handler

let is_up t site = t.up.(site)

let same_side t a b =
  match t.partition_group with
  | None -> true
  | Some group -> Site_id.Set.mem a group = Site_id.Set.mem b group

let reachable t a b = t.up.(a) && t.up.(b) && same_side t a b

(* Schedule the delivery of one datagram, maintaining per-link FIFO order:
   the delivery time is the max of (now + sampled latency) and the link's
   previous delivery time. Datagrams already in flight survive a later crash
   of their sender (they left the source when sent); at delivery they are
   dropped only if the destination is down. Whether a partition cuts the
   datagram is decided HERE, at send time: per-destination latencies are
   sampled independently, so checking sides at delivery time would let one
   receiver's copy land just before the cut and another's just after —
   breaking, for a broadcast straddling the cut edge, the all-or-nothing
   property [send_all] promises (either every up same-side receiver gets a
   copy or none does). Evaluating every copy's fate at the single send
   instant keeps the decision uniform across the fan-out. *)
let deliver_scheduled t ~src ~dst msg =
  let delay =
    if Site_id.equal src dst then loopback else Latency.sample t.latency t.rng
  in
  (* Link-level loss with ARQ: each lost attempt adds the retransmission
     timeout plus a fresh latency sample before the copy that survives. *)
  let delay =
    match t.loss with
    | Some { drop_probability; rto } when not (Site_id.equal src dst) ->
      let rec attempts acc =
        if Sim.Rng.float t.rng 1.0 < drop_probability then begin
          Net_stats.record_send t.stats ~category:(t.classify msg);
          Net_stats.record_drop t.stats ~category:(t.classify msg);
          attempts (Sim.Time.add acc (Sim.Time.add rto (Latency.sample t.latency t.rng)))
        end
        else acc
      in
      attempts delay
    | Some _ | None -> delay
  in
  let now = Sim.Engine.now t.engine in
  (* Serialization onto the wire: the datagram departs once the sender's
     interface is free, and holds it for [tx_time]. Self-deliveries are
     local enqueues and skip the interface. *)
  let departure =
    if Sim.Time.compare t.tx_time Sim.Time.zero = 0 || Site_id.equal src dst
    then now
    else begin
      let d = Sim.Time.add (Sim.Time.max now t.tx_clock.(src)) t.tx_time in
      t.tx_clock.(src) <- d;
      d
    end
  in
  let earliest = Sim.Time.add departure delay in
  let slot = (src * t.n) + dst in
  let at = Sim.Time.max earliest t.link_clock.(slot) in
  t.link_clock.(slot) <- at;
  t.in_flight <- t.in_flight + 1;
  let timing = { rx_sent = now; rx_depart = departure; rx_arrive = at } in
  let callback () =
    t.in_flight <- t.in_flight - 1;
    if t.up.(dst) then begin
      match t.handlers.(dst) with
      | Some handler ->
        (* Expose this datagram's wire timestamps for the dynamic extent
           of the handler call only — receivers that care (the critical-
           path profiler's audit plumbing) read them synchronously;
           everything else never observes the field. *)
        t.rx <- Some timing;
        Fun.protect ~finally:(fun () -> t.rx <- None) (fun () ->
            handler ~src msg)
      | None -> Net_stats.record_drop t.stats ~category:(t.classify msg)
    end
    else Net_stats.record_drop t.stats ~category:(t.classify msg)
  in
  ignore (Sim.Engine.schedule_at t.engine ~time:at callback)

let deliver t ~src ~dst msg =
  if same_side t src dst then deliver_scheduled t ~src ~dst msg
  else Net_stats.record_drop t.stats ~category:(t.classify msg)

let send t ~src ~dst msg =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Network.send: bad site";
  if not (reachable t src dst) then
    Net_stats.record_drop t.stats ~category:(t.classify msg)
  else begin
    Net_stats.record_send t.stats ~category:(t.classify msg);
    deliver t ~src ~dst msg
  end

let send_all t ~src ?(include_self = true) msg =
  if src < 0 || src >= t.n then invalid_arg "Network.send_all: bad site";
  if not t.up.(src) then Net_stats.record_drop t.stats ~category:(t.classify msg)
  else begin
    (* Iterate the sites directly rather than materialising a target list:
       this is the per-broadcast hot path of every protocol. *)
    let receivers = if include_self then t.n else t.n - 1 in
    Net_stats.record_broadcast t.stats ~category:(t.classify msg) ~receivers;
    for dst = 0 to t.n - 1 do
      if include_self || not (Site_id.equal dst src) then
        deliver t ~src ~dst msg
    done
  end

let set_loss t loss =
  validate_loss ~who:"Network.set_loss" loss;
  t.loss <- loss

let crash t site = t.up.(site) <- false
let recover t site = t.up.(site) <- true

let partition t group =
  t.partition_group <- Some (Site_id.Set.of_list group)

let heal t = t.partition_group <- None
