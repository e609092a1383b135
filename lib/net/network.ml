type loss = { drop_probability : float; rto : Sim.Time.t }

type rx_timing = {
  rx_sent : Sim.Time.t;
  rx_depart : Sim.Time.t;
  rx_arrive : Sim.Time.t;
}

(* One ordered link's datagrams in flight, oldest first: a ring parallel
   to its engine channel's pending events, so a datagram's arrival event
   pops the ring's head. The payload is an option so that a popped slot
   can be cleared; one [Some] is shared by every copy of a send. The
   length of the arrays is a power of two (zero until the first send). *)
type 'm link = {
  arrivals : Sim.Engine.channel;
  mutable msgs : 'm option array;
  mutable sent : Sim.Time.t array;
  mutable depart : Sim.Time.t array;
  mutable first : int;
  mutable count : int;
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
  mutable links : 'm link array;  (* indexed like [link_clock] *)
  mutable partition_group : Site_id.Set.t option;
  stats : Net_stats.t;
  (* wire timestamps of the datagram currently being handed to a handler;
     [rx_live] only for the dynamic extent of the handler call *)
  mutable rx_live : bool;
  mutable rx_sent : Sim.Time.t;
  mutable rx_depart : Sim.Time.t;
  mutable rx_arrive : Sim.Time.t;
}

let validate_loss ~who = function
  | Some { drop_probability = p; _ } when p < 0.0 || p >= 1.0 ->
    invalid_arg (who ^ ": drop_probability must be in [0, 1)")
  | Some _ | None -> ()

(* Self-delivery delay: strictly positive, so a site's message to itself is
   asynchronous like everything else. *)
let loopback = Sim.Time.of_us 10

(* The arrival event of the oldest datagram on link [src -> dst]: pop it
   off the ring, clearing its slot, and hand it to [dst]'s handler. *)
let arrive t ~src ~dst link =
  let i = link.first in
  let msg = link.msgs.(i) in
  link.msgs.(i) <- None;
  link.first <- (i + 1) land (Array.length link.msgs - 1);
  link.count <- link.count - 1;
  match msg with
  | None -> assert false
  | Some msg -> (
    match t.handlers.(dst) with
    | Some handler when t.up.(dst) ->
      (* Expose this datagram's wire timestamps for the dynamic extent of
         the handler call only — receivers that care (the critical-path
         profiler's audit plumbing) read them synchronously; everything
         else never observes the fields. *)
      t.rx_live <- true;
      t.rx_sent <- link.sent.(i);
      t.rx_depart <- link.depart.(i);
      t.rx_arrive <- Sim.Engine.now t.engine;
      (match handler ~src msg with
      | () -> t.rx_live <- false
      | exception e ->
        t.rx_live <- false;
        raise e)
    | Some _ | None -> Net_stats.record_drop t.stats ~category:(t.classify msg))

let create engine ~n ~latency ?(classify = fun _ -> "msg")
    ?(tx_time = Sim.Time.zero) ?loss () =
  if n <= 0 then invalid_arg "Network.create: n <= 0";
  if n > Site_id.max_sites then invalid_arg "Network.create: n > Site_id.max_sites";
  validate_loss ~who:"Network.create" loss;
  let t =
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
      links = [||];
      partition_group = None;
      stats = Net_stats.create ();
      tx_clock = Array.make n Sim.Time.zero;
      rx_live = false;
      rx_sent = Sim.Time.zero;
      rx_depart = Sim.Time.zero;
      rx_arrive = Sim.Time.zero;
    }
  in
  t.links <-
    Array.init (n * n) (fun slot ->
        let src = slot / n and dst = slot mod n in
        {
          arrivals =
            Sim.Engine.channel engine (fun () -> arrive t ~src ~dst t.links.(slot));
          msgs = [||];
          sent = [||];
          depart = [||];
          first = 0;
          count = 0;
        });
  t

let engine t = t.engine
let n_sites t = t.n
let sites t = Site_id.all ~n:t.n
let stats t = t.stats

let rx_timing t =
  if t.rx_live then
    Some { rx_sent = t.rx_sent; rx_depart = t.rx_depart; rx_arrive = t.rx_arrive }
  else None

(* Telemetry probes over the links and NIC clocks: called only on sampling
   ticks, never on the send hot path, so an O(n^2) scan is fine. *)
let in_flight t = Array.fold_left (fun k link -> k + link.count) 0 t.links

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

(* Copy a ring's [count] elements, oldest first, into a fresh array of
   [capacity] slots. *)
let regrow ring ~first ~count ~capacity ~fill =
  let fresh = Array.make capacity fill in
  let head = Stdlib.min count (Array.length ring - first) in
  Array.blit ring first fresh 0 head;
  Array.blit ring 0 fresh head (count - head);
  fresh

(* Append a datagram to its link's ring, doubling the ring when full, and
   schedule its arrival on the link's channel. *)
let enqueue link ~boxed ~sent ~departure ~at =
  if Array.length link.msgs = 0 then begin
    (* literals: the first allocation makes no runtime call *)
    link.msgs <- [| None; None; None; None |];
    link.sent <- [| 0; 0; 0; 0 |];
    link.depart <- [| 0; 0; 0; 0 |]
  end
  else if link.count = Array.length link.msgs then begin
    let first = link.first and count = link.count in
    let capacity = 2 * count in
    link.msgs <- regrow link.msgs ~first ~count ~capacity ~fill:None;
    link.sent <- regrow link.sent ~first ~count ~capacity ~fill:Sim.Time.zero;
    link.depart <- regrow link.depart ~first ~count ~capacity ~fill:Sim.Time.zero;
    link.first <- 0
  end;
  let i = (link.first + link.count) land (Array.length link.msgs - 1) in
  link.msgs.(i) <- boxed;
  link.sent.(i) <- sent;
  link.depart.(i) <- departure;
  link.count <- link.count + 1;
  Sim.Engine.push link.arrivals ~time:at

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
let deliver_scheduled t ~src ~dst msg ~boxed =
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
  enqueue t.links.(slot) ~boxed ~sent:now ~departure ~at

let deliver t ~src ~dst msg ~boxed =
  if same_side t src dst then deliver_scheduled t ~src ~dst msg ~boxed
  else Net_stats.record_drop t.stats ~category:(t.classify msg)

let send t ~src ~dst msg =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Network.send: bad site";
  if not (reachable t src dst) then
    Net_stats.record_drop t.stats ~category:(t.classify msg)
  else begin
    Net_stats.record_send t.stats ~category:(t.classify msg);
    deliver t ~src ~dst msg ~boxed:(Some msg)
  end

let send_all t ~src ?(include_self = true) msg =
  if src < 0 || src >= t.n then invalid_arg "Network.send_all: bad site";
  if not t.up.(src) then Net_stats.record_drop t.stats ~category:(t.classify msg)
  else begin
    (* Iterate the sites directly rather than materialising a target list:
       this is the per-broadcast hot path of every protocol. *)
    let receivers = if include_self then t.n else t.n - 1 in
    Net_stats.record_broadcast t.stats ~category:(t.classify msg) ~receivers;
    let boxed = Some msg in
    for dst = 0 to t.n - 1 do
      if include_self || not (Site_id.equal dst src) then
        deliver t ~src ~dst msg ~boxed
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
