(* Unit and property tests for the simulation kernel. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Time *)

let test_time_units () =
  check_int "ms to us" 5_000 (Sim.Time.to_us (Sim.Time.of_ms 5));
  check_int "sec to us" 1_500_000 (Sim.Time.to_us (Sim.Time.of_sec 1.5));
  Alcotest.(check (float 1e-9)) "roundtrip" 0.25 (Sim.Time.to_sec (Sim.Time.of_sec 0.25))

let test_time_arith () =
  let a = Sim.Time.of_ms 3 and b = Sim.Time.of_ms 2 in
  check_int "add" 5_000 (Sim.Time.to_us (Sim.Time.add a b));
  check_int "diff" 1_000 (Sim.Time.to_us (Sim.Time.diff a b));
  check_bool "lt" true Sim.Time.(b < a);
  check_bool "le refl" true Sim.Time.(a <= a)

let test_time_invalid () =
  Alcotest.check_raises "negative us" (Invalid_argument "Time.of_us: negative")
    (fun () -> ignore (Sim.Time.of_us (-1)));
  Alcotest.check_raises "negative diff"
    (Invalid_argument "Time.diff: negative result") (fun () ->
      ignore (Sim.Time.diff (Sim.Time.of_us 1) (Sim.Time.of_us 2)))

(* ------------------------------------------------------------------ *)
(* Event queue *)

let test_queue_order () =
  let q = Sim.Event_queue.create () in
  ignore (Sim.Event_queue.push q ~time:(Sim.Time.of_us 30) "c");
  ignore (Sim.Event_queue.push q ~time:(Sim.Time.of_us 10) "a");
  ignore (Sim.Event_queue.push q ~time:(Sim.Time.of_us 20) "b");
  let pop () = Option.map snd (Sim.Event_queue.pop q) in
  let p1 = pop () in
  let p2 = pop () in
  let p3 = pop () in
  let p4 = pop () in
  Alcotest.(check (list (option string)))
    "sorted" [ Some "a"; Some "b"; Some "c"; None ] [ p1; p2; p3; p4 ]

let test_queue_fifo_ties () =
  let q = Sim.Event_queue.create () in
  let t = Sim.Time.of_us 5 in
  for i = 0 to 9 do
    ignore (Sim.Event_queue.push q ~time:t i)
  done;
  let order = List.init 10 (fun _ -> snd (Option.get (Sim.Event_queue.pop q))) in
  Alcotest.(check (list int)) "insertion order on ties" (List.init 10 Fun.id) order

let test_queue_cancel () =
  let q = Sim.Event_queue.create () in
  let _a = Sim.Event_queue.push q ~time:(Sim.Time.of_us 1) "a" in
  let b = Sim.Event_queue.push q ~time:(Sim.Time.of_us 2) "b" in
  let _c = Sim.Event_queue.push q ~time:(Sim.Time.of_us 3) "c" in
  Sim.Event_queue.cancel q b;
  check_int "size after cancel" 2 (Sim.Event_queue.size q);
  Alcotest.(check (option string)) "skips cancelled" (Some "a")
    (Option.map snd (Sim.Event_queue.pop q));
  Alcotest.(check (option string)) "skips cancelled 2" (Some "c")
    (Option.map snd (Sim.Event_queue.pop q))

let test_queue_cancel_foreign_handle () =
  (* A handle belongs to the queue that issued it: cancelling it through a
     different queue must be rejected, not silently shrink that queue's
     live count. *)
  let q1 = Sim.Event_queue.create () in
  let q2 = Sim.Event_queue.create () in
  let h1 = Sim.Event_queue.push q1 ~time:(Sim.Time.of_us 1) "a" in
  ignore (Sim.Event_queue.push q2 ~time:(Sim.Time.of_us 1) "b");
  Alcotest.check_raises "foreign handle rejected"
    (Invalid_argument "Event_queue.cancel: handle from a different queue")
    (fun () -> Sim.Event_queue.cancel q2 h1);
  check_int "q2 size undisturbed" 1 (Sim.Event_queue.size q2);
  check_bool "q2 not empty" false (Sim.Event_queue.is_empty q2);
  check_int "q1 size undisturbed" 1 (Sim.Event_queue.size q1);
  (* the handle still works on its own queue *)
  Sim.Event_queue.cancel q1 h1;
  check_int "q1 empty after own cancel" 0 (Sim.Event_queue.size q1)

let test_queue_peek () =
  let q = Sim.Event_queue.create () in
  Alcotest.(check (option int)) "empty" None (Sim.Event_queue.peek_time q);
  let h = Sim.Event_queue.push q ~time:(Sim.Time.of_us 7) () in
  Alcotest.(check (option int)) "peek" (Some 7) (Sim.Event_queue.peek_time q);
  Sim.Event_queue.cancel q h;
  Alcotest.(check (option int)) "peek after cancel" None (Sim.Event_queue.peek_time q)

(* Chains against plain pushes: pushing a chain event must pop at exactly
   the place a plain push at the same moment would have, with the same
   live count after every step, pops interleaved with pushes. *)
let prop_chains_match_plain_pushes =
  QCheck.Test.make ~name:"chain events pop where plain pushes would" ~count:300
    QCheck.(list (triple (int_bound 3) (int_bound 4) (int_bound 50)))
    (fun ops ->
      let chained = Sim.Event_queue.create () and plain = Sim.Event_queue.create () in
      let chains = Array.init 4 (fun c -> Sim.Event_queue.chain chained (`Chain c)) in
      let last = Array.make 4 0 in
      let ok = ref true in
      let pop_both () =
        let a = Sim.Event_queue.pop chained and b = Sim.Event_queue.pop plain in
        if a <> b || Sim.Event_queue.size chained <> Sim.Event_queue.size plain then
          ok := false
      in
      List.iter
        (fun (kind, c, t) ->
          match kind with
          | 0 -> pop_both ()
          | 1 ->
            ignore (Sim.Event_queue.push chained ~time:t (`Plain t));
            ignore (Sim.Event_queue.push plain ~time:t (`Plain t))
          | _ ->
            let c = c mod 4 in
            let time = last.(c) + t in
            last.(c) <- time;
            Sim.Event_queue.push_chain chains.(c) ~time;
            ignore (Sim.Event_queue.push plain ~time (`Chain c)))
        ops;
      while not (Sim.Event_queue.is_empty plain) do
        pop_both ()
      done;
      !ok && Sim.Event_queue.is_empty chained)

let prop_queue_sorted =
  QCheck.Test.make ~name:"event queue pops sorted by (time, seq)" ~count:200
    QCheck.(list (int_bound 1000))
    (fun times ->
      let q = Sim.Event_queue.create () in
      List.iteri (fun i t -> ignore (Sim.Event_queue.push q ~time:t (t, i))) times;
      let rec drain acc =
        match Sim.Event_queue.pop q with
        | Some (_, v) -> drain (v :: acc)
        | None -> List.rev acc
      in
      let popped = drain [] in
      let sorted = List.stable_sort (fun (a, _) (b, _) -> compare a b)
          (List.mapi (fun i t -> (t, i)) times) in
      popped = sorted)

(* ------------------------------------------------------------------ *)
(* RNG *)

let test_rng_determinism () =
  let a = Sim.Rng.create ~seed:1 and b = Sim.Rng.create ~seed:1 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Sim.Rng.bits64 a = Sim.Rng.bits64 b)
  done

let test_rng_split_independent () =
  let parent = Sim.Rng.create ~seed:2 in
  let child = Sim.Rng.split parent in
  let xs = List.init 50 (fun _ -> Sim.Rng.bits64 parent) in
  let ys = List.init 50 (fun _ -> Sim.Rng.bits64 child) in
  check_bool "streams differ" true (xs <> ys)

let test_rng_bounds () =
  let rng = Sim.Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Sim.Rng.int rng 10 in
    check_bool "int in bounds" true (v >= 0 && v < 10);
    let f = Sim.Rng.float rng 2.0 in
    check_bool "float in bounds" true (f >= 0.0 && f < 2.0);
    let u = Sim.Rng.uniform_int rng ~lo:5 ~hi:7 in
    check_bool "uniform in range" true (u >= 5 && u <= 7)
  done

let test_rng_exponential_mean () =
  let rng = Sim.Rng.create ~seed:4 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Sim.Rng.exponential rng ~mean:3.0
  done;
  let mean = !sum /. float_of_int n in
  check_bool "empirical mean near 3" true (Float.abs (mean -. 3.0) < 0.15)

let test_zipf_skew () =
  let rng = Sim.Rng.create ~seed:5 in
  let gen = Sim.Rng.Zipf.create ~n:100 ~theta:1.2 in
  let counts = Array.make 100 0 in
  for _ = 1 to 10_000 do
    let k = Sim.Rng.Zipf.draw gen rng in
    check_bool "in range" true (k >= 0 && k < 100);
    counts.(k) <- counts.(k) + 1
  done;
  check_bool "rank 0 hotter than rank 50" true (counts.(0) > counts.(50))

let test_zipf_uniform_theta0 () =
  let rng = Sim.Rng.create ~seed:6 in
  let gen = Sim.Rng.Zipf.create ~n:4 ~theta:0.0 in
  let counts = Array.make 4 0 in
  for _ = 1 to 8_000 do
    let k = Sim.Rng.Zipf.draw gen rng in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iter
    (fun c -> check_bool "roughly uniform" true (c > 1_600 && c < 2_400))
    counts

(* The uniform generator computes its rank from [u]; the table [theta = 0]
   used to build, by the same partial sums, searched as before, is the
   reference. Draws include [u = 0], the largest [u] below 1, and the
   entries' own values, where a product rounded up is one too high. *)
let zipf_table ~n ~theta =
  let cdf = Array.make n 0.0 in
  let total = ref 0.0 in
  for k = 0 to n - 1 do
    total := !total +. (1.0 /. Float.pow (float_of_int (k + 1)) theta);
    cdf.(k) <- !total
  done;
  Array.map (fun c -> c /. !total) cdf

let table_index cdf u =
  let rec search lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if cdf.(mid) >= u then search lo mid else search (mid + 1) hi
    end
  in
  search 0 (Array.length cdf - 1)

let prop_uniform_zipf_matches_table =
  QCheck.Test.make ~name:"uniform key draws match the table search" ~count:300
    QCheck.(pair (int_range 1 10_000) (int_bound 1_000_000))
    (fun (n, seed) ->
      let gen = Sim.Rng.Zipf.create ~n ~theta:0.0 in
      let rng = Sim.Rng.create ~seed in
      let cdf = zipf_table ~n ~theta:0.0 in
      let entry k = cdf.(k) in
      let us =
        [ 0.0; Float.pred 1.0; entry 0; entry (n / 2); entry (n - 1) ]
        @ List.init 200 (fun _ -> Sim.Rng.float rng 1.0)
        @ List.init 50 (fun _ -> entry (Sim.Rng.int rng n))
      in
      List.for_all
        (fun u ->
          u >= 1.0
          ||
          let got = Sim.Rng.Zipf.index gen u and want = table_index cdf u in
          got = want
          || QCheck.Test.fail_reportf "n=%d u=%h: rank %d, table %d" n u got want)
        us)

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_runs_in_order () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore (Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 2) (fun () -> log := 2 :: !log));
  ignore (Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 1) (fun () -> log := 1 :: !log));
  ignore (Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 3) (fun () -> log := 3 :: !log));
  Sim.Engine.run e ();
  Alcotest.(check (list int)) "causal order" [ 1; 2; 3 ] (List.rev !log);
  check_int "clock at last event" 3_000 (Sim.Time.to_us (Sim.Engine.now e))

let test_engine_nested_schedule () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  ignore
    (Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 1) (fun () ->
         incr fired;
         ignore (Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 1) (fun () -> incr fired))));
  Sim.Engine.run e ();
  check_int "both fired" 2 !fired

let test_engine_run_until () =
  let e = Sim.Engine.create () in
  let fired = ref [] in
  List.iter
    (fun ms ->
      ignore (Sim.Engine.schedule e ~delay:(Sim.Time.of_ms ms) (fun () -> fired := ms :: !fired)))
    [ 1; 5; 9 ];
  Sim.Engine.run_until e (Sim.Time.of_ms 5);
  Alcotest.(check (list int)) "only <= horizon" [ 1; 5 ] (List.rev !fired);
  check_int "clock advanced to horizon" 5_000 (Sim.Time.to_us (Sim.Engine.now e));
  Sim.Engine.run_until e (Sim.Time.of_ms 20);
  Alcotest.(check (list int)) "rest" [ 1; 5; 9 ] (List.rev !fired)

let test_engine_channel () =
  let e = Sim.Engine.create () in
  let fired = ref [] in
  let ch = Sim.Engine.channel e (fun () -> fired := "ch" :: !fired) in
  let timer name ms =
    ignore (Sim.Engine.schedule e ~delay:(Sim.Time.of_ms ms) (fun () -> fired := name :: !fired))
  in
  timer "t1" 1;
  Sim.Engine.push ch ~time:(Sim.Time.of_ms 1);
  timer "t2" 1;
  Sim.Engine.push ch ~time:(Sim.Time.of_ms 1);
  Sim.Engine.push ch ~time:(Sim.Time.of_ms 2);
  check_int "every push pending" 5 (Sim.Engine.pending e);
  Sim.Engine.run_until e (Sim.Time.of_ms 1);
  Alcotest.(check (list string)) "ties keep push order" [ "t1"; "ch"; "t2"; "ch" ]
    (List.rev !fired);
  check_int "one left" 1 (Sim.Engine.pending e);
  Alcotest.check_raises "backwards push"
    (Invalid_argument "Event_queue.push_chain: time goes backwards") (fun () ->
      Sim.Engine.push ch ~time:(Sim.Time.of_us 1_500));
  Alcotest.check_raises "push in the past" (Invalid_argument "Engine.push: in the past")
    (fun () -> Sim.Engine.push ch ~time:(Sim.Time.of_us 999));
  Sim.Engine.run e ();
  check_int "drained" 5 (List.length !fired);
  check_int "processed" 5 (Sim.Engine.processed e)

let test_engine_cancel () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let h = Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 1) (fun () -> fired := true) in
  Sim.Engine.cancel e h;
  Sim.Engine.run e ();
  check_bool "cancelled does not fire" false !fired

let test_engine_stop () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  for _ = 1 to 5 do
    ignore
      (Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 1) (fun () ->
           incr count;
           if !count = 3 then raise Sim.Engine.Stop))
  done;
  Sim.Engine.run e ();
  check_int "stopped at 3" 3 !count

let test_engine_past_schedule_rejected () =
  let e = Sim.Engine.create () in
  ignore (Sim.Engine.schedule e ~delay:(Sim.Time.of_ms 5) (fun () -> ()));
  Sim.Engine.run e ();
  Alcotest.check_raises "past time"
    (Invalid_argument "Engine.schedule_at: in the past") (fun () ->
      ignore (Sim.Engine.schedule_at e ~time:(Sim.Time.of_ms 1) (fun () -> ())))

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "sim"
    [
      ( "time",
        [
          tc "units" `Quick test_time_units;
          tc "arithmetic" `Quick test_time_arith;
          tc "invalid" `Quick test_time_invalid;
        ] );
      ( "event_queue",
        [
          tc "pops in time order" `Quick test_queue_order;
          tc "fifo on equal times" `Quick test_queue_fifo_ties;
          tc "cancellation" `Quick test_queue_cancel;
          tc "foreign handle rejected" `Quick test_queue_cancel_foreign_handle;
          tc "peek" `Quick test_queue_peek;
          QCheck_alcotest.to_alcotest prop_queue_sorted;
          QCheck_alcotest.to_alcotest prop_chains_match_plain_pushes;
        ] );
      ( "rng",
        [
          tc "determinism" `Quick test_rng_determinism;
          tc "split independence" `Quick test_rng_split_independent;
          tc "bounds" `Quick test_rng_bounds;
          tc "exponential mean" `Quick test_rng_exponential_mean;
          tc "zipf skew" `Quick test_zipf_skew;
          tc "zipf uniform at theta 0" `Quick test_zipf_uniform_theta0;
          QCheck_alcotest.to_alcotest prop_uniform_zipf_matches_table;
        ] );
      ( "engine",
        [
          tc "event order" `Quick test_engine_runs_in_order;
          tc "nested scheduling" `Quick test_engine_nested_schedule;
          tc "run_until" `Quick test_engine_run_until;
          tc "cancel" `Quick test_engine_cancel;
          tc "fifo channel" `Quick test_engine_channel;
          tc "stop" `Quick test_engine_stop;
          tc "rejects past" `Quick test_engine_past_schedule_rejected;
        ] );
    ]
