(* Layer replays: each times one layer's public functions alone, on the
   workload's own parameters and generated inputs. Every replay does a fixed
   amount of work (deterministic per seed) and reports the median of
   [reps] timed repetitions. *)

let reps = 5

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

(* [work ()] runs one repetition and returns how many operations it did. *)
let ns_per_op work =
  median
    (List.init reps (fun _ ->
         let t0 = Drive.now_ns () in
         let ops = work () in
         (Drive.now_ns () -. t0) /. float_of_int (max 1 ops)))

(* The generated transactions of the workload, as (reads, writes). *)
let txns (w : Workloads.t) ~seed ~count =
  let gen = Workload.create w.profile ~rng:(Sim.Rng.create ~seed) in
  Array.init count (fun _ ->
      let op = Workload.next gen in
      (op.Repdb.Op.reads, Repdb.Op.write_set op ~read_results:[]))

(* Engine.schedule/run with [depth] self-rescheduling callbacks, so the
   queue holds the workload's mean number of pending events throughout. *)
let sim_ns_per_event ~seed ~depth =
  let events = 200_000 in
  ns_per_op (fun () ->
      let engine = Sim.Engine.create ~seed () in
      let rng = Sim.Rng.split (Sim.Engine.rng engine) in
      let rec tick () =
        ignore (Sim.Engine.schedule engine ~delay:(1 + Sim.Rng.int rng 2000) tick)
      in
      for _ = 1 to max 1 depth do
        tick ()
      done;
      Sim.Engine.run engine ~max_events:events ();
      events)

(* Network.send_all from every site in turn, each sender pacing itself at
   one broadcast per NIC slot for the whole fan-out. *)
let net_ns_per_datagram (w : Workloads.t) ~seed =
  let c = w.config in
  let n = c.Repdb.Config.n_sites in
  let pace = Sim.Time.of_us (max 10 (Sim.Time.to_us c.tx_time * n)) in
  let per_sender = 20_000 / n in
  ns_per_op (fun () ->
      let engine = Sim.Engine.create ~seed () in
      let net =
        Net.Network.create engine ~n ~latency:c.latency ~tx_time:c.tx_time ()
      in
      for site = 0 to n - 1 do
        Net.Network.set_handler net site (fun ~src:_ (_ : int) -> ())
      done;
      for site = 0 to n - 1 do
        let rec send k =
          if k > 0 then begin
            Net.Network.send_all net ~src:site k;
            ignore (Sim.Engine.schedule engine ~delay:pace (fun () -> send (k - 1)))
          end
        in
        send per_sender
      done;
      Sim.Engine.run engine ();
      Net.Net_stats.datagrams (Net.Network.stats net))

(* A bare endpoint group with the workload's batch policy and NIC cost;
   every client site broadcasts in the protocol's commit class, one message
   per [gap] (the workload's own per-site broadcast rate). *)
let bcast_ns_per_delivery (w : Workloads.t) ~seed ~gap =
  let c = w.config in
  let n = c.Repdb.Config.n_sites in
  let horizon = Sim.Time.of_ms 300 in
  ns_per_op (fun () ->
      let engine = Sim.Engine.create ~seed () in
      let group =
        Broadcast.Endpoint.create_group engine ~n ~latency:c.latency
          ~hb_interval:c.hb_interval ~suspect_after:(Sim.Time.of_sec 10.0)
          ?batch:c.batch ~tx_time:c.tx_time ()
      in
      let delivered = ref 0 in
      let eps = Broadcast.Endpoint.endpoints group in
      Array.iter
        (fun ep -> Broadcast.Endpoint.set_deliver ep (fun _ -> incr delivered))
        eps;
      List.iter
        (fun i ->
          let rec loop k =
            if Sim.Engine.now engine < horizon then begin
              ignore (Broadcast.Endpoint.broadcast eps.(i) w.cls (i, k));
              ignore (Sim.Engine.schedule engine ~delay:gap (fun () -> loop (k + 1)))
            end
          in
          ignore (Sim.Engine.schedule engine ~delay:(Sim.Time.of_us (1 + i)) (fun () -> loop 0)))
        w.client_sites;
      Sim.Engine.run_until engine (Sim.Time.add horizon (Sim.Time.of_ms 100));
      !delivered)

(* Lock_manager.acquire/release_all under No_wait: a sliding window of the
   workload's in-flight population, each transaction taking shared locks on
   its reads and exclusive locks on its writes. *)
let lock_ns_per_op (w : Workloads.t) txns =
  let inflight = List.length w.client_sites * w.clients_per_site in
  ns_per_op (fun () ->
      let lm =
        Db.Lock_manager.create ~policy:Db.Lock_manager.No_wait
          ~on_grant:(fun _ _ _ -> ())
          ()
      in
      let id i = Db.Txn_id.make ~origin:(i mod 5) ~local:i in
      let ops = ref 0 in
      Array.iteri
        (fun i (reads, writes) ->
          let txn = id i in
          List.iter
            (fun k ->
              ignore (Db.Lock_manager.acquire lm ~txn k Db.Lock_manager.Shared);
              incr ops)
            reads;
          List.iter
            (fun (k, _) ->
              ignore (Db.Lock_manager.acquire lm ~txn k Db.Lock_manager.Exclusive);
              incr ops)
            writes;
          if i >= inflight then begin
            Db.Lock_manager.release_all lm (id (i - inflight));
            incr ops
          end)
        txns;
      !ops)

(* Version_store.apply of every generated write set, then read_latest of
   every key each transaction touches. *)
let store_ns txns =
  let store = ref (Db.Version_store.create ()) in
  let apply =
    ns_per_op (fun () ->
        let s = Db.Version_store.create () in
        Array.iteri
          (fun i (_, writes) ->
            ignore
              (Db.Version_store.apply s
                 ~writer:(Db.Txn_id.make ~origin:0 ~local:i)
                 writes))
          txns;
        store := s;
        Array.length txns)
  in
  let read =
    ns_per_op (fun () ->
        let reads = ref 0 and sum = ref 0 in
        Array.iter
          (fun (rs, ws) ->
            let read k =
              sum := !sum + Db.Version_store.read_latest !store k;
              incr reads
            in
            List.iter read rs;
            List.iter (fun (k, _) -> read k) ws)
          txns;
        ignore (Sys.opaque_identity !sum);
        !reads)
  in
  (apply, read)

let workload_ns_per_txn (w : Workloads.t) ~seed =
  let count = 50_000 in
  ns_per_op (fun () ->
      let gen = Workload.create w.profile ~rng:(Sim.Rng.create ~seed) in
      for _ = 1 to count do
        ignore (Sys.opaque_identity (Workload.next gen))
      done;
      count)
