(* Network layer: FIFO links, latency models, failures, accounting. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let make ?(n = 3) ?(latency = Net.Latency.Constant (Sim.Time.of_ms 1)) ?classify () =
  let engine = Sim.Engine.create ~seed:11 () in
  let net = Net.Network.create engine ~n ~latency ?classify () in
  (engine, net)

let collect net site log =
  Net.Network.set_handler net site (fun ~src msg -> log := (src, msg) :: !log)

(* ------------------------------------------------------------------ *)

let test_site_id () =
  Alcotest.(check (list int)) "all" [ 0; 1; 2 ] (Net.Site_id.all ~n:3);
  Alcotest.(check string) "pp" "S2" (Net.Site_id.to_string 2)

let test_latency_models () =
  let rng = Sim.Rng.create ~seed:1 in
  let c = Net.Latency.Constant (Sim.Time.of_ms 2) in
  check_int "constant" 2_000 (Sim.Time.to_us (Net.Latency.sample c rng));
  let u = Net.Latency.Uniform (Sim.Time.of_us 10, Sim.Time.of_us 20) in
  for _ = 1 to 100 do
    let s = Sim.Time.to_us (Net.Latency.sample u rng) in
    check_bool "uniform in range" true (s >= 10 && s <= 20)
  done;
  let e = Net.Latency.Exp_shifted (Sim.Time.of_us 100, Sim.Time.of_us 50) in
  for _ = 1 to 100 do
    check_bool "exp >= base" true (Sim.Time.to_us (Net.Latency.sample e rng) >= 100)
  done;
  check_int "mean of uniform" 15 (Sim.Time.to_us (Net.Latency.mean u))

let test_basic_delivery () =
  let engine, net = make () in
  let log = ref [] in
  collect net 1 log;
  Net.Network.send net ~src:0 ~dst:1 "hello";
  Sim.Engine.run engine ();
  Alcotest.(check (list (pair int string))) "delivered" [ (0, "hello") ] !log;
  check_int "clock at latency" 1_000 (Sim.Time.to_us (Sim.Engine.now engine))

let test_fifo_per_link_random_latency () =
  let engine, net =
    make ~latency:(Net.Latency.Uniform (Sim.Time.of_us 100, Sim.Time.of_us 5_000)) ()
  in
  let log = ref [] in
  collect net 1 log;
  for i = 0 to 49 do
    Net.Network.send net ~src:0 ~dst:1 i
  done;
  Sim.Engine.run engine ();
  Alcotest.(check (list int)) "fifo despite jitter" (List.init 50 Fun.id)
    (List.rev_map snd !log)

let test_send_all_counts () =
  let engine, net = make ~n:4 () in
  let logs = Array.init 4 (fun _ -> ref []) in
  Array.iteri (fun i log -> collect net i log) logs;
  Net.Network.send_all net ~src:0 "b";
  Sim.Engine.run engine ();
  check_int "self included" 1 (List.length !(logs.(0)));
  check_int "others get it" 1 (List.length !(logs.(3)));
  let stats = Net.Network.stats net in
  check_int "one broadcast" 1 (Net.Net_stats.broadcasts stats);
  check_int "four datagrams" 4 (Net.Net_stats.datagrams stats)

let test_send_all_exclude_self () =
  let engine, net = make ~n:3 () in
  let logs = Array.init 3 (fun _ -> ref []) in
  Array.iteri (fun i log -> collect net i log) logs;
  Net.Network.send_all net ~src:0 ~include_self:false "b";
  Sim.Engine.run engine ();
  check_int "no self" 0 (List.length !(logs.(0)));
  check_int "datagrams" 2 (Net.Net_stats.datagrams (Net.Network.stats net))

let test_crash_drops () =
  let engine, net = make () in
  let log = ref [] in
  collect net 1 log;
  Net.Network.crash net 1;
  Net.Network.send net ~src:0 ~dst:1 "lost";
  Sim.Engine.run engine ();
  check_int "nothing delivered" 0 (List.length !log);
  check_bool "drop counted" true (Net.Net_stats.drops (Net.Network.stats net) >= 1);
  Net.Network.recover net 1;
  Net.Network.send net ~src:0 ~dst:1 "back";
  Sim.Engine.run engine ();
  Alcotest.(check (list (pair int string))) "after recovery" [ (0, "back") ] !log

let test_crashed_source_cannot_send () =
  let engine, net = make () in
  let log = ref [] in
  collect net 1 log;
  Net.Network.crash net 0;
  Net.Network.send net ~src:0 ~dst:1 "x";
  Net.Network.send_all net ~src:0 "y";
  Sim.Engine.run engine ();
  check_int "nothing" 0 (List.length !log)

let test_inflight_survives_sender_crash () =
  let engine, net = make () in
  let log = ref [] in
  collect net 1 log;
  Net.Network.send net ~src:0 ~dst:1 "sent-before-crash";
  Net.Network.crash net 0;
  Sim.Engine.run engine ();
  check_int "in-flight delivered" 1 (List.length !log)

let test_partition () =
  let engine, net = make ~n:4 () in
  let logs = Array.init 4 (fun _ -> ref []) in
  Array.iteri (fun i log -> collect net i log) logs;
  Net.Network.partition net [ 0; 1 ];
  Net.Network.send net ~src:0 ~dst:1 "same-side";
  Net.Network.send net ~src:0 ~dst:2 "cross";
  Sim.Engine.run engine ();
  check_int "same side ok" 1 (List.length !(logs.(1)));
  check_int "cross dropped" 0 (List.length !(logs.(2)));
  check_bool "reachable same side" true (Net.Network.reachable net 0 1);
  check_bool "unreachable cross" false (Net.Network.reachable net 0 2);
  Net.Network.heal net;
  Net.Network.send net ~src:0 ~dst:2 "healed";
  Sim.Engine.run engine ();
  check_int "after heal" 1 (List.length !(logs.(2)))

let test_classification () =
  let engine, net = make ~classify:(fun m -> m) () in
  Net.Network.set_handler net 1 (fun ~src:_ _ -> ());
  Net.Network.send net ~src:0 ~dst:1 "alpha";
  Net.Network.send net ~src:0 ~dst:1 "alpha";
  Net.Network.send net ~src:0 ~dst:1 "beta";
  Sim.Engine.run engine ();
  let stats = Net.Network.stats net in
  check_int "alpha count" 2 (Net.Net_stats.datagrams_for stats ~category:"alpha");
  check_int "beta count" 1 (Net.Net_stats.datagrams_for stats ~category:"beta");
  Alcotest.(check (list (pair string int))) "by_category sorted"
    [ ("alpha", 2); ("beta", 1) ]
    (Net.Net_stats.by_category stats)

let test_stats_reset () =
  let s = Net.Net_stats.create () in
  Net.Net_stats.record_send s ~category:"x";
  Net.Net_stats.record_broadcast s ~category:"y" ~receivers:3;
  check_int "datagrams" 4 (Net.Net_stats.datagrams s);
  Net.Net_stats.reset s;
  check_int "reset" 0 (Net.Net_stats.datagrams s);
  check_int "reset broadcast" 0 (Net.Net_stats.broadcasts s)

let test_loopback_delay () =
  let engine, net = make () in
  let log = ref [] in
  collect net 0 log;
  Net.Network.send net ~src:0 ~dst:0 "self";
  check_int "asynchronous" 0 (List.length !log);
  Sim.Engine.run engine ();
  check_int "delivered" 1 (List.length !log);
  check_bool "fast loopback" true (Sim.Time.to_us (Sim.Engine.now engine) < 1_000)


let test_rx_timing () =
  (* the wire timestamps a receiver sees: the sender's NIC serializes its
     datagrams one after another, self-deliveries skip the NIC, and the
     timing is visible only while a handler runs *)
  let engine = Sim.Engine.create ~seed:11 () in
  let net =
    Net.Network.create engine ~n:2
      ~latency:(Net.Latency.Constant (Sim.Time.of_ms 1))
      ~tx_time:(Sim.Time.of_us 100) ()
  in
  let us = Sim.Time.to_us in
  let seen = ref [] in
  let record site =
    Net.Network.set_handler net site (fun ~src:_ msg ->
        match Net.Network.rx_timing net with
        | None -> Alcotest.fail (msg ^ ": no wire timing inside the handler")
        | Some rx ->
          check_int (msg ^ " arrives now") (us (Sim.Engine.now engine))
            (us rx.Net.Network.rx_arrive);
          seen :=
            (msg, (us rx.Net.Network.rx_sent, us rx.Net.Network.rx_depart,
                   us rx.Net.Network.rx_arrive))
            :: !seen)
  in
  record 0;
  record 1;
  Net.Network.send net ~src:0 ~dst:1 "a";
  Net.Network.send net ~src:0 ~dst:1 "b";
  Net.Network.send net ~src:0 ~dst:0 "self";
  check_int "NIC backlog of two datagrams" 200 (Net.Network.tx_backlog_us net);
  check_bool "no timing outside a handler" true
    (Net.Network.rx_timing net = None);
  Sim.Engine.run engine ();
  Alcotest.(check (list (pair string (triple int int int))))
    "(sent, depart, arrive) per delivery"
    [ ("self", (0, 0, 10)); ("a", (0, 100, 1_100)); ("b", (0, 200, 1_200)) ]
    (List.rev !seen);
  check_int "backlog drained" 0 (Net.Network.tx_backlog_us net);
  check_bool "no timing after the run" true (Net.Network.rx_timing net = None)

let test_loss_arq_delivers_in_order () =
  let engine = Sim.Engine.create ~seed:21 () in
  let net =
    Net.Network.create engine ~n:2
      ~latency:(Net.Latency.Constant (Sim.Time.of_ms 1))
      ~loss:{ Net.Network.drop_probability = 0.3; rto = Sim.Time.of_ms 5 }
      ()
  in
  let log = ref [] in
  Net.Network.set_handler net 1 (fun ~src:_ msg -> log := msg :: !log);
  for i = 0 to 99 do
    Net.Network.send net ~src:0 ~dst:1 i
  done;
  Sim.Engine.run engine ();
  Alcotest.(check (list int)) "all delivered, in order, exactly once"
    (List.init 100 Fun.id) (List.rev !log);
  check_bool "retransmissions happened" true
    (Net.Net_stats.drops (Net.Network.stats net) > 0);
  check_bool "head-of-line blocking visible" true
    (Sim.Time.to_ms (Sim.Engine.now engine) > 1.0)

let test_loss_validation () =
  let engine = Sim.Engine.create () in
  Alcotest.check_raises "bad probability"
    (Invalid_argument "Network.create: drop_probability must be in [0, 1)")
    (fun () ->
      ignore
        (Net.Network.create engine ~n:2 ~latency:Net.Latency.lan
           ~loss:{ Net.Network.drop_probability = 1.0; rto = Sim.Time.of_ms 5 }
           ()))

let prop_fifo_any_seed =
  QCheck.Test.make ~name:"per-link fifo under exponential latency, any seed"
    ~count:30
    QCheck.(int_bound 10_000)
    (fun seed ->
      let engine = Sim.Engine.create ~seed () in
      let net =
        Net.Network.create engine ~n:2
          ~latency:(Net.Latency.Exp_shifted (Sim.Time.of_us 10, Sim.Time.of_us 2_000))
          ()
      in
      let log = ref [] in
      Net.Network.set_handler net 1 (fun ~src:_ msg -> log := msg :: !log);
      Net.Network.set_handler net 0 (fun ~src:_ _ -> ());
      for i = 0 to 29 do
        Net.Network.send net ~src:0 ~dst:1 i
      done;
      Sim.Engine.run engine ();
      List.rev !log = List.init 30 Fun.id)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "net"
    [
      ( "basics",
        [
          tc "site ids" `Quick test_site_id;
          tc "latency models" `Quick test_latency_models;
          tc "delivery" `Quick test_basic_delivery;
          tc "loopback is async" `Quick test_loopback_delay;
        ] );
      ( "ordering",
        [
          tc "fifo per link" `Quick test_fifo_per_link_random_latency;
          QCheck_alcotest.to_alcotest prop_fifo_any_seed;
        ] );
      ( "broadcast",
        [
          tc "send_all" `Quick test_send_all_counts;
          tc "send_all exclude self" `Quick test_send_all_exclude_self;
        ] );
      ( "failures",
        [
          tc "crash drops" `Quick test_crash_drops;
          tc "crashed source" `Quick test_crashed_source_cannot_send;
          tc "in-flight survives sender crash" `Quick test_inflight_survives_sender_crash;
          tc "partition" `Quick test_partition;
          tc "loss: ARQ exactly-once in-order" `Quick test_loss_arq_delivers_in_order;
          tc "loss: validation" `Quick test_loss_validation;
        ] );
      ( "accounting",
        [
          tc "classification" `Quick test_classification;
          tc "reset" `Quick test_stats_reset;
          tc "wire timing" `Quick test_rx_timing;
        ] );
    ]
