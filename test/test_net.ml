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
  Alcotest.(check string) "pp" "S2" (Net.Site_id.to_string 2);
  (* one bit per site: the cap holds wherever a site count comes in *)
  let cap = Net.Site_id.max_sites in
  check_int "cap" Sys.int_size cap;
  let engine = Sim.Engine.create () in
  let latency = Net.Latency.lan in
  check_int "a network at the cap" cap
    (Net.Network.n_sites (Net.Network.create engine ~n:cap ~latency ()));
  Alcotest.check_raises "a network past the cap"
    (Invalid_argument "Network.create: n > Site_id.max_sites") (fun () ->
      ignore (Net.Network.create engine ~n:(cap + 1) ~latency ()));
  check_int "a view at the cap" cap (Broadcast.View.size (Broadcast.View.initial ~n:cap));
  Alcotest.check_raises "a view past the cap"
    (Invalid_argument "View.initial: n outside 1..Site_id.max_sites") (fun () ->
      ignore (Broadcast.View.initial ~n:(cap + 1)))

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

(* ------------------------------------------------------------------ *)
(* Differential property: the link rings against the per-datagram
   scheduler they replaced (test/network_reference.ml). *)

(* The network operations a scripted run drives, over either
   implementation. Payloads are hop counts: a handler answers a payload
   [p > 0] with [p - 1]. *)
type ops = {
  send : src:int -> dst:int -> int -> unit;
  send_all : src:int -> include_self:bool -> int -> unit;
  set_loss : (float * int) option -> unit;
  crash : int -> unit;
  recover : int -> unit;
  partition : int list -> unit;
  heal : unit -> unit;
  set_handler : int -> (src:int -> int -> unit) -> unit;
  rx : unit -> (int * int * int) option;
  stats : Net.Net_stats.t;
  in_flight : unit -> int;
}

let classify p = if p mod 2 = 0 then "even" else "odd"

let new_net engine ~n ~latency ~tx_time =
  let module N = Net.Network in
  let net = N.create engine ~n ~latency ~classify ~tx_time () in
  {
    send = (fun ~src ~dst p -> N.send net ~src ~dst p);
    send_all = (fun ~src ~include_self p -> N.send_all net ~src ~include_self p);
    set_loss =
      (fun l ->
        N.set_loss net
          (Option.map (fun (drop_probability, rto) -> { N.drop_probability; rto }) l));
    crash = N.crash net;
    recover = N.recover net;
    partition = N.partition net;
    heal = (fun () -> N.heal net);
    set_handler = N.set_handler net;
    rx =
      (fun () ->
        Option.map
          (fun { N.rx_sent; rx_depart; rx_arrive } -> (rx_sent, rx_depart, rx_arrive))
          (N.rx_timing net));
    stats = N.stats net;
    in_flight = (fun () -> N.in_flight net);
  }

let reference_net engine ~n ~latency ~tx_time =
  let module N = Network_reference in
  let net = N.create engine ~n ~latency ~classify ~tx_time () in
  {
    send = (fun ~src ~dst p -> N.send net ~src ~dst p);
    send_all = (fun ~src ~include_self p -> N.send_all net ~src ~include_self p);
    set_loss =
      (fun l ->
        N.set_loss net
          (Option.map (fun (drop_probability, rto) -> { N.drop_probability; rto }) l));
    crash = N.crash net;
    recover = N.recover net;
    partition = N.partition net;
    heal = (fun () -> N.heal net);
    set_handler = N.set_handler net;
    rx =
      (fun () ->
        Option.map
          (fun { N.rx_sent; rx_depart; rx_arrive } -> (rx_sent, rx_depart, rx_arrive))
          (N.rx_timing net));
    stats = N.stats net;
    in_flight = (fun () -> N.in_flight net);
  }

type script_op =
  | Send of int * int * int
  | Burst of int * int * int
      (* that many sends on one link, payloads -1, -2, ...: no replies *)
  | Send_all of int * bool * int
  | Loss of (float * int) option
  | Crash of int
  | Recover of int
  | Partition of int list
  | Heal

type script = {
  sites : int;
  latency : Net.Latency.t;
  tx_time : Sim.Time.t;
  ops : (Sim.Time.t * script_op) list;  (* non-decreasing times *)
}

let script_of_seed seed =
  let rng = Sim.Rng.create ~seed in
  let sites = 1 + Sim.Rng.int rng 11 in
  let us k = Sim.Time.of_us (Sim.Rng.int rng k) in
  let latency =
    match Sim.Rng.int rng 3 with
    | 0 -> Net.Latency.Constant (Sim.Time.add (Sim.Time.of_us 1) (us 2_000))
    | 1 ->
      let lo = us 1_000 in
      Net.Latency.Uniform (lo, Sim.Time.add lo (us 3_000))
    | _ -> Net.Latency.Exp_shifted (us 1_000, Sim.Time.add (Sim.Time.of_us 1) (us 1_000))
  in
  let tx_time = if Sim.Rng.bool rng then Sim.Time.of_us 50 else Sim.Time.zero in
  let site () = Sim.Rng.int rng sites in
  let hops () = Sim.Rng.int rng 4 in
  let at = ref Sim.Time.zero in
  let ops =
    List.init (1 + Sim.Rng.int rng 20) (fun _ ->
        (* zero gaps keep same-instant ties in the script *)
        if Sim.Rng.bool rng then at := Sim.Time.add !at (us 1_500);
        let op =
          match Sim.Rng.int rng 22 with
          | 0 | 1 | 2 | 3 | 4 | 5 | 6 -> Send (site (), site (), hops ())
          | 20 | 21 -> Burst (site (), site (), Sim.Rng.int rng 40)
          | 7 | 8 | 9 | 10 -> Send_all (site (), Sim.Rng.bool rng, hops ())
          | 11 | 12 -> Crash (site ())
          | 13 | 14 -> Recover (site ())
          | 15 -> Partition (List.filter (fun _ -> Sim.Rng.bool rng) (Net.Site_id.all ~n:sites))
          | 16 -> Heal
          | 17 | 18 -> Loss (Some (Sim.Rng.float rng 0.6, 500 + Sim.Rng.int rng 2_000))
          | _ -> Loss None
        in
        (!at, op))
  in
  { sites; latency; tx_time; ops }

(* Everything a run lets an observer see, in delivery order: per delivery
   its time, link, payload, wire timestamps, engine counters and datagrams
   in flight; then the accounting. *)
let run_script make seed script =
  let engine = Sim.Engine.create ~seed () in
  let net = make engine ~n:script.sites ~latency:script.latency ~tx_time:script.tx_time in
  let log = ref [] in
  for dst = 0 to script.sites - 1 do
    net.set_handler dst (fun ~src p ->
        log :=
          ( (Sim.Engine.now engine, src, dst, p, net.rx ()),
            (Sim.Engine.pending engine, Sim.Engine.processed engine, net.in_flight ()) )
          :: !log;
        if p > 0 then
          match p mod 3 with
          | 0 -> net.send ~src:dst ~dst:src (p - 1)
          | 1 -> net.send ~src:dst ~dst (p - 1)
          | _ -> net.send_all ~src:dst ~include_self:(p mod 2 = 0) (p - 1))
  done;
  List.iter
    (fun (time, op) ->
      ignore
        (Sim.Engine.schedule_at engine ~time (fun () ->
             match op with
             | Send (src, dst, p) -> net.send ~src ~dst p
             | Burst (src, dst, k) ->
               for i = 1 to k do
                 net.send ~src ~dst (-i)
               done
             | Send_all (src, include_self, p) -> net.send_all ~src ~include_self p
             | Loss l -> net.set_loss l
             | Crash s -> net.crash s
             | Recover s -> net.recover s
             | Partition group -> net.partition group
             | Heal -> net.heal ())))
    script.ops;
  Sim.Engine.run engine ();
  let stats = net.stats in
  ( List.rev !log,
    ( Net.Net_stats.datagrams stats,
      Net.Net_stats.broadcasts stats,
      Net.Net_stats.drops stats,
      Net.Net_stats.by_category stats,
      Net.Net_stats.drops_by_category stats ),
    (Sim.Engine.now engine, Sim.Engine.processed engine, net.in_flight ()) )

let prop_rings_match_reference =
  QCheck.Test.make ~name:"link rings replay the per-datagram scheduler exactly"
    ~count:1_000
    QCheck.(int_bound 1_000_000_000)
    (fun seed ->
      let script = script_of_seed seed in
      run_script new_net seed script = run_script reference_net seed script)

(* ------------------------------------------------------------------ *)
(* The bitmask site set against a balanced-tree set of ints. *)

module Int_set = Set.Make (Int)
module Bits = Net.Site_id.Set

(* "Is the site [r] mod [k]?", with a reader of its calls, oldest first. *)
let traced ~k ~r =
  let calls = ref [] in
  ( (fun x ->
      calls := x :: !calls;
      x mod k = r),
    fun () -> List.rev !calls )

let prop_bitmask_set_matches_tree_set =
  QCheck.Test.make ~name:"bitmask site set agrees with Set.Make (Int)" ~count:1_000
    QCheck.(int_bound 1_000_000_000)
    (fun seed ->
      let rng = Sim.Rng.create ~seed in
      let cap = Net.Site_id.max_sites in
      let in_range () = Sim.Rng.int rng cap in
      let any_site () =
        match Sim.Rng.int rng 8 with
        | 0 -> List.nth [ -1; cap; cap + 1; max_int; min_int ] (Sim.Rng.int rng 5)
        | _ -> in_range ()
      in
      (* two registers, so the binary predicates see related sets *)
      let bits = [| Bits.empty; Bits.empty |] and tree = [| Int_set.empty; Int_set.empty |] in
      let ok = ref true in
      let expect b = if not b then ok := false in
      for _ = 1 to 60 do
        let i = Sim.Rng.int rng 2 in
        (match Sim.Rng.int rng 6 with
        | 0 | 1 | 2 ->
          let x = any_site () in
          if x >= 0 && x < cap then begin
            bits.(i) <- Bits.add x bits.(i);
            tree.(i) <- Int_set.add x tree.(i)
          end
          else
            expect
              (match Bits.add x bits.(i) with
              | _ -> false
              | exception Invalid_argument _ -> true)
        | 3 ->
          let x =
            match Int_set.choose_opt tree.(i) with
            | Some x when Sim.Rng.bool rng -> x
            | Some _ | None -> any_site ()
          in
          bits.(i) <- Bits.remove x bits.(i);
          tree.(i) <- Int_set.remove x tree.(i)
        | 4 ->
          let xs = List.init (Sim.Rng.int rng 12) (fun _ -> in_range ()) in
          bits.(i) <- Bits.of_list xs;
          tree.(i) <- Int_set.of_list xs
        | _ ->
          bits.(i) <- Bits.empty;
          tree.(i) <- Int_set.empty);
        let b = bits.(i) and t = tree.(i) in
        let x = any_site () in
        expect (Bits.mem x b = Int_set.mem x t);
        expect (Bits.elements b = Int_set.elements t);
        expect (Bits.min_elt_opt b = Int_set.min_elt_opt t);
        expect (Bits.cardinal b = Int_set.cardinal t);
        expect (Bits.equal bits.(0) bits.(1) = Int_set.equal tree.(0) tree.(1));
        expect (Bits.subset bits.(0) bits.(1) = Int_set.subset tree.(0) tree.(1));
        expect (Bits.subset bits.(1) bits.(0) = Int_set.subset tree.(1) tree.(0));
        expect (Bits.disjoint bits.(0) bits.(1) = Int_set.disjoint tree.(0) tree.(1));
        (* predicates run in increasing order and stop at the first witness,
           as List.exists / List.for_all over the sorted elements do *)
        let k = 1 + Sim.Rng.int rng 5 in
        let r = Sim.Rng.int rng k in
        let p, calls = traced ~k ~r and q, expected = traced ~k ~r in
        expect (Bits.exists p b = List.exists q (Int_set.elements t));
        expect (calls () = expected ());
        let p, calls = traced ~k ~r and q, expected = traced ~k ~r in
        expect (Bits.for_all p b = List.for_all q (Int_set.elements t));
        expect (calls () = expected ())
      done;
      !ok)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "net"
    [
      ( "basics",
        [
          tc "site ids" `Quick test_site_id;
          QCheck_alcotest.to_alcotest prop_bitmask_set_matches_tree_set;
          tc "latency models" `Quick test_latency_models;
          tc "delivery" `Quick test_basic_delivery;
          tc "loopback is async" `Quick test_loopback_delay;
        ] );
      ( "ordering",
        [
          tc "fifo per link" `Quick test_fifo_per_link_random_latency;
          QCheck_alcotest.to_alcotest prop_fifo_any_seed;
          QCheck_alcotest.to_alcotest prop_rings_match_reference;
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
