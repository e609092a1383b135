(* Broadcast layer: pure hold-back state machines, then endpoint groups
   end-to-end (reliable FIFO, causal order, total order, failover, join). *)

module Ep = Broadcast.Endpoint
module Vc = Lclock.Vector_clock

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Fifo_state *)

let test_fifo_in_order () =
  let f = Broadcast.Fifo_state.create () in
  (match Broadcast.Fifo_state.offer f ~origin:0 ~seq:0 "a" with
  | Broadcast.Fifo_state.Ready [ (0, "a") ] -> ()
  | _ -> Alcotest.fail "expected ready");
  check_int "expected advanced" 1 (Broadcast.Fifo_state.expected f ~origin:0)

let test_fifo_gap_then_release () =
  let f = Broadcast.Fifo_state.create () in
  (match Broadcast.Fifo_state.offer f ~origin:0 ~seq:2 "c" with
  | Broadcast.Fifo_state.Buffered -> ()
  | _ -> Alcotest.fail "early should buffer");
  (match Broadcast.Fifo_state.offer f ~origin:0 ~seq:1 "b" with
  | Broadcast.Fifo_state.Buffered -> ()
  | _ -> Alcotest.fail "still a gap");
  (match Broadcast.Fifo_state.offer f ~origin:0 ~seq:0 "a" with
  | Broadcast.Fifo_state.Ready [ (0, "a"); (1, "b"); (2, "c") ] -> ()
  | _ -> Alcotest.fail "gap fill releases run");
  check_int "no pending" 0 (Broadcast.Fifo_state.pending_count f)

let test_fifo_duplicates () =
  let f = Broadcast.Fifo_state.create () in
  ignore (Broadcast.Fifo_state.offer f ~origin:0 ~seq:0 "a");
  (match Broadcast.Fifo_state.offer f ~origin:0 ~seq:0 "a" with
  | Broadcast.Fifo_state.Duplicate -> ()
  | _ -> Alcotest.fail "stale is duplicate");
  ignore (Broadcast.Fifo_state.offer f ~origin:0 ~seq:2 "c");
  (match Broadcast.Fifo_state.offer f ~origin:0 ~seq:2 "c" with
  | Broadcast.Fifo_state.Duplicate -> ()
  | _ -> Alcotest.fail "buffered twice is duplicate")

let test_fifo_origins_independent () =
  let f = Broadcast.Fifo_state.create () in
  ignore (Broadcast.Fifo_state.offer f ~origin:0 ~seq:0 "a");
  (match Broadcast.Fifo_state.offer f ~origin:1 ~seq:0 "x" with
  | Broadcast.Fifo_state.Ready [ (0, "x") ] -> ()
  | _ -> Alcotest.fail "other origin independent")

let test_fifo_fast_forward () =
  let f = Broadcast.Fifo_state.create () in
  ignore (Broadcast.Fifo_state.offer f ~origin:0 ~seq:3 "d");
  ignore (Broadcast.Fifo_state.offer f ~origin:0 ~seq:7 "h");
  let released = Broadcast.Fifo_state.fast_forward f ~origin:0 ~next_seq:3 in
  Alcotest.(check (list (pair int string))) "release from base" [ (3, "d") ] released;
  check_int "expected" 4 (Broadcast.Fifo_state.expected f ~origin:0);
  check_int "late one still buffered" 1 (Broadcast.Fifo_state.pending_count f);
  Alcotest.(check (list (pair int string))) "ff no-op backwards" []
    (Broadcast.Fifo_state.fast_forward f ~origin:0 ~next_seq:2)

let test_fifo_out_of_order_beyond_one_gap () =
  (* Arrivals 4, 2, 0, 1, 3: each gap fill releases exactly the contiguous
     run it completes, never a buffered message past the next gap. *)
  let f = Broadcast.Fifo_state.create () in
  (match Broadcast.Fifo_state.offer f ~origin:0 ~seq:4 "e" with
  | Broadcast.Fifo_state.Buffered -> ()
  | _ -> Alcotest.fail "4 buffers");
  (match Broadcast.Fifo_state.offer f ~origin:0 ~seq:2 "c" with
  | Broadcast.Fifo_state.Buffered -> ()
  | _ -> Alcotest.fail "2 buffers");
  (match Broadcast.Fifo_state.offer f ~origin:0 ~seq:0 "a" with
  | Broadcast.Fifo_state.Ready [ (0, "a") ] -> ()
  | _ -> Alcotest.fail "0 releases only itself: 1 is still missing");
  (match Broadcast.Fifo_state.offer f ~origin:0 ~seq:1 "b" with
  | Broadcast.Fifo_state.Ready [ (1, "b"); (2, "c") ] -> ()
  | _ -> Alcotest.fail "1 releases the run up to the next gap");
  (match Broadcast.Fifo_state.offer f ~origin:0 ~seq:3 "d" with
  | Broadcast.Fifo_state.Ready [ (3, "d"); (4, "e") ] -> ()
  | _ -> Alcotest.fail "3 releases the tail");
  check_int "nothing pending" 0 (Broadcast.Fifo_state.pending_count f)

let test_fifo_purge () =
  let f = Broadcast.Fifo_state.create () in
  ignore (Broadcast.Fifo_state.offer f ~origin:0 ~seq:0 "a");
  ignore (Broadcast.Fifo_state.offer f ~origin:0 ~seq:2 "stale-c");
  ignore (Broadcast.Fifo_state.offer f ~origin:1 ~seq:5 "other");
  Broadcast.Fifo_state.purge f ~origin:0;
  check_int "only the other origin's buffer survives" 1
    (Broadcast.Fifo_state.pending_count f);
  check_int "expected counter untouched" 1
    (Broadcast.Fifo_state.expected f ~origin:0);
  (* The next incarnation reuses sequence numbers: after a re-base the old
     buffered copy must not resurrect in place of the fresh one. *)
  ignore (Broadcast.Fifo_state.fast_forward f ~origin:0 ~next_seq:2);
  match Broadcast.Fifo_state.offer f ~origin:0 ~seq:2 "fresh-c" with
  | Broadcast.Fifo_state.Ready [ (2, "fresh-c") ] -> ()
  | _ -> Alcotest.fail "fresh incarnation message delivers, not the stale copy"

(* ------------------------------------------------------------------ *)
(* Delay_queue *)

let vc l = Vc.of_array (Array.of_list l)

let test_delay_in_causal_order () =
  let q = Broadcast.Delay_queue.create ~n:3 in
  (* site 0 sends m1 <1,0,0>; site 1 delivers it then sends m2 <1,1,0> *)
  (match Broadcast.Delay_queue.offer q ~origin:1 ~vc:(vc [ 1; 1; 0 ]) "m2" with
  | Broadcast.Delay_queue.Buffered -> ()
  | _ -> Alcotest.fail "m2 must wait for m1");
  (match Broadcast.Delay_queue.offer q ~origin:0 ~vc:(vc [ 1; 0; 0 ]) "m1" with
  | Broadcast.Delay_queue.Ready [ r1; r2 ] ->
    Alcotest.(check string) "m1 first" "m1" r1.Broadcast.Delay_queue.payload;
    Alcotest.(check string) "m2 second" "m2" r2.Broadcast.Delay_queue.payload
  | _ -> Alcotest.fail "m1 unblocks m2");
  Alcotest.(check (list int)) "delivered cut" [ 1; 1; 0 ]
    (Array.to_list (Vc.to_array (Broadcast.Delay_queue.delivered_vc q)))

let test_delay_same_origin_fifo () =
  let q = Broadcast.Delay_queue.create ~n:2 in
  (match Broadcast.Delay_queue.offer q ~origin:0 ~vc:(vc [ 2; 0 ]) "second" with
  | Broadcast.Delay_queue.Buffered -> ()
  | _ -> Alcotest.fail "seq 2 before 1 must buffer");
  match Broadcast.Delay_queue.offer q ~origin:0 ~vc:(vc [ 1; 0 ]) "first" with
  | Broadcast.Delay_queue.Ready rs ->
    Alcotest.(check (list string)) "fifo" [ "first"; "second" ]
      (List.map (fun r -> r.Broadcast.Delay_queue.payload) rs)
  | _ -> Alcotest.fail "expected both"

let test_delay_duplicates () =
  let q = Broadcast.Delay_queue.create ~n:2 in
  ignore (Broadcast.Delay_queue.offer q ~origin:0 ~vc:(vc [ 1; 0 ]) "m");
  (match Broadcast.Delay_queue.offer q ~origin:0 ~vc:(vc [ 1; 0 ]) "m" with
  | Broadcast.Delay_queue.Duplicate -> ()
  | _ -> Alcotest.fail "redelivery is duplicate");
  ignore (Broadcast.Delay_queue.offer q ~origin:0 ~vc:(vc [ 3; 0 ]) "early");
  match Broadcast.Delay_queue.offer q ~origin:0 ~vc:(vc [ 3; 0 ]) "early" with
  | Broadcast.Delay_queue.Duplicate -> ()
  | _ -> Alcotest.fail "buffered duplicate"

let test_delay_fast_forward () =
  let q = Broadcast.Delay_queue.create ~n:2 in
  ignore (Broadcast.Delay_queue.offer q ~origin:1 ~vc:(vc [ 2; 1 ]) "needs-2");
  let released = Broadcast.Delay_queue.fast_forward q ~origin:0 ~count:2 in
  Alcotest.(check (list string)) "unblocked by jump" [ "needs-2" ]
    (List.map (fun r -> r.Broadcast.Delay_queue.payload) released)

let test_delay_duplicate_while_gapped () =
  (* A duplicate of a buffered message is suppressed even while the gap
     that blocks it is still open, and the eventual gap fill releases a
     single copy. *)
  let q = Broadcast.Delay_queue.create ~n:2 in
  (match Broadcast.Delay_queue.offer q ~origin:1 ~vc:(vc [ 1; 1 ]) "m2" with
  | Broadcast.Delay_queue.Buffered -> ()
  | _ -> Alcotest.fail "m2 waits for site 0's m1");
  (match Broadcast.Delay_queue.offer q ~origin:1 ~vc:(vc [ 1; 1 ]) "m2" with
  | Broadcast.Delay_queue.Duplicate -> ()
  | _ -> Alcotest.fail "redelivery while blocked is a duplicate");
  match Broadcast.Delay_queue.offer q ~origin:0 ~vc:(vc [ 1; 0 ]) "m1" with
  | Broadcast.Delay_queue.Ready rs ->
    Alcotest.(check (list string)) "one copy each" [ "m1"; "m2" ]
      (List.map (fun r -> r.Broadcast.Delay_queue.payload) rs)
  | _ -> Alcotest.fail "gap fill releases both"

let test_delay_purge () =
  let q = Broadcast.Delay_queue.create ~n:2 in
  ignore (Broadcast.Delay_queue.offer q ~origin:0 ~vc:(vc [ 1; 0 ]) "live");
  ignore (Broadcast.Delay_queue.offer q ~origin:1 ~vc:(vc [ 9; 1 ]) "doomed");
  Broadcast.Delay_queue.purge q ~origin:1;
  check_int "buffered entry dropped" 0 (Broadcast.Delay_queue.pending_count q);
  Alcotest.(check (list int)) "delivered counts untouched" [ 1; 0 ]
    (Array.to_list (Vc.to_array (Broadcast.Delay_queue.delivered_vc q)));
  (* The origin's next incarnation restarts its sequence numbers from the
     agreed cut; the purged copy must not shadow the fresh stream. *)
  match Broadcast.Delay_queue.offer q ~origin:1 ~vc:(vc [ 1; 1 ]) "fresh" with
  | Broadcast.Delay_queue.Ready [ r ] ->
    Alcotest.(check string) "fresh incarnation delivers" "fresh"
      r.Broadcast.Delay_queue.payload
  | _ -> Alcotest.fail "fresh incarnation message must deliver"

let test_delay_dimension_check () =
  let q = Broadcast.Delay_queue.create ~n:2 in
  Alcotest.check_raises "dimension"
    (Invalid_argument "Delay_queue.offer: vector clock dimension mismatch")
    (fun () -> ignore (Broadcast.Delay_queue.offer q ~origin:0 ~vc:(vc [ 1 ]) "x"))

(* Random interleaving property: deliveries respect causal order. *)
let prop_delay_causal =
  QCheck.Test.make ~name:"delay queue delivers in causal order under any arrival"
    ~count:200
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Sim.Rng.create ~seed in
      let n = 3 in
      (* build a random causal history: each site sends messages, each send
         merges a random subset of already-delivered state *)
      let counters = Array.make n 0 in
      let sent = ref [] in
      let site_vc = Array.init n (fun _ -> Array.make n 0) in
      for _ = 1 to 25 do
        let s = Sim.Rng.int rng n in
        (* site s may observe another site's latest stamp (models delivery) *)
        let o = Sim.Rng.int rng n in
        Array.iteri
          (fun i v -> site_vc.(s).(i) <- Stdlib.max v site_vc.(s).(i))
          site_vc.(o);
        counters.(s) <- counters.(s) + 1;
        site_vc.(s).(s) <- counters.(s);
        sent := (s, Array.copy site_vc.(s)) :: !sent
      done;
      let messages = Array.of_list (List.rev !sent) in
      (* shuffle arrivals per receiver, respecting per-origin FIFO roughly
         not at all — the queue must fix everything *)
      let order = Array.init (Array.length messages) Fun.id in
      for i = Array.length order - 1 downto 1 do
        let j = Sim.Rng.int rng (i + 1) in
        let t = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- t
      done;
      let q = Broadcast.Delay_queue.create ~n in
      let delivered = ref [] in
      Array.iter
        (fun idx ->
          let origin, stamp = messages.(idx) in
          match Broadcast.Delay_queue.offer q ~origin ~vc:(Vc.of_array stamp) idx with
          | Broadcast.Delay_queue.Ready rs ->
            List.iter (fun r -> delivered := r :: !delivered) rs
          | Broadcast.Delay_queue.Buffered | Broadcast.Delay_queue.Duplicate -> ())
        order;
      let delivered = List.rev !delivered in
      (* 1. everything delivered; 2. causal order respected *)
      List.length delivered = Array.length messages
      && begin
        let seen = ref [] in
        List.for_all
          (fun r ->
            let ok =
              List.for_all
                (fun earlier ->
                  not
                    (Vc.strictly_before r.Broadcast.Delay_queue.vc
                       earlier.Broadcast.Delay_queue.vc))
                !seen
            in
            seen := r :: !seen;
            ok)
          delivered
      end)

(* Regression oracle: the pre-rewrite quadratic implementation, verbatim.
   [drain] iterated [List.filter] over the whole pending list to a fixpoint,
   releasing deliverable entries in arrival order. The rewrite replaced the
   scan with indexed wake-up; this reference pins down the observable
   contract the rewrite must keep — same releases, same (arrival-stable)
   release order, same delivered cut. *)
module Delay_reference = struct
  type 'a release = { origin : Net.Site_id.t; vc : Vc.t; payload : 'a }

  type 'a t = {
    delivered : int array;
    mutable pending : 'a release list;  (* in arrival order *)
  }

  let create ~n = { delivered = Array.make n 0; pending = [] }

  type 'a offer_result = Ready of 'a release list | Buffered | Duplicate

  let seq_of release = Vc.get release.vc release.origin

  let deliverable t release =
    let v = Vc.to_array release.vc in
    let ok = ref (v.(release.origin) = t.delivered.(release.origin) + 1) in
    Array.iteri
      (fun k vk ->
        if k <> release.origin && vk > t.delivered.(k) then ok := false)
      v;
    !ok

  let mark_delivered t release =
    t.delivered.(release.origin) <- t.delivered.(release.origin) + 1

  let drain t =
    let released = ref [] in
    let progress = ref true in
    while !progress do
      progress := false;
      let still_pending =
        List.filter
          (fun r ->
            if deliverable t r then begin
              mark_delivered t r;
              released := r :: !released;
              progress := true;
              false
            end
            else true)
          t.pending
      in
      t.pending <- still_pending
    done;
    List.rev !released

  let offer t ~origin ~vc payload =
    let release = { origin; vc; payload } in
    let seq = seq_of release in
    if seq <= t.delivered.(origin) then Duplicate
    else if
      List.exists
        (fun r -> Net.Site_id.equal r.origin origin && seq_of r = seq)
        t.pending
    then Duplicate
    else if deliverable t release then begin
      mark_delivered t release;
      Ready (release :: drain t)
    end
    else begin
      t.pending <- t.pending @ [ release ];
      Buffered
    end

  let fast_forward t ~origin ~count =
    if count <= t.delivered.(origin) then []
    else begin
      t.delivered.(origin) <- count;
      t.pending <-
        List.filter
          (fun r -> not (Net.Site_id.equal r.origin origin && seq_of r <= count))
          t.pending;
      drain t
    end
end

(* The indexed rewrite against the reference: identical release sequence
   (values AND order — arrival order within a wake-up sweep is part of the
   contract) and identical delivered cut, over randomized causal histories,
   arrival shuffles and an occasional fast-forward jump. *)
let prop_delay_matches_reference =
  QCheck.Test.make
    ~name:"delay queue rewrite matches the quadratic reference" ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Sim.Rng.create ~seed in
      let n = 4 in
      let counters = Array.make n 0 in
      let sent = ref [] in
      let site_vc = Array.init n (fun _ -> Array.make n 0) in
      for _ = 1 to 40 do
        let s = Sim.Rng.int rng n in
        let o = Sim.Rng.int rng n in
        Array.iteri
          (fun i v -> site_vc.(s).(i) <- Stdlib.max v site_vc.(s).(i))
          site_vc.(o);
        counters.(s) <- counters.(s) + 1;
        site_vc.(s).(s) <- counters.(s);
        sent := (s, Array.copy site_vc.(s)) :: !sent
      done;
      let messages = Array.of_list (List.rev !sent) in
      let order = Array.init (Array.length messages) Fun.id in
      for i = Array.length order - 1 downto 1 do
        let j = Sim.Rng.int rng (i + 1) in
        let t = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- t
      done;
      let q = Broadcast.Delay_queue.create ~n in
      let r = Delay_reference.create ~n in
      let q_rel = ref [] and r_rel = ref [] in
      let record into rs = List.iter (fun x -> into := x :: !into) rs in
      let step i idx =
        let origin, stamp = messages.(idx) in
        let vc = Vc.of_array stamp in
        (match Broadcast.Delay_queue.offer q ~origin ~vc idx with
        | Broadcast.Delay_queue.Ready rs ->
          record q_rel (List.map (fun x -> x.Broadcast.Delay_queue.payload) rs)
        | Broadcast.Delay_queue.Buffered | Broadcast.Delay_queue.Duplicate -> ());
        (match Delay_reference.offer r ~origin ~vc idx with
        | Delay_reference.Ready rs ->
          record r_rel (List.map (fun x -> x.Delay_reference.payload) rs)
        | Delay_reference.Buffered | Delay_reference.Duplicate -> ());
        (* midway, jump one origin's counter like a join re-base does *)
        if i = Array.length order / 2 then begin
          let origin = Sim.Rng.int rng n in
          let count = r.Delay_reference.delivered.(origin) + Sim.Rng.int rng 3 in
          record q_rel
            (List.map
               (fun x -> x.Broadcast.Delay_queue.payload)
               (Broadcast.Delay_queue.fast_forward q ~origin ~count));
          record r_rel
            (List.map
               (fun x -> x.Delay_reference.payload)
               (Delay_reference.fast_forward r ~origin ~count))
        end
      in
      Array.iteri step order;
      List.rev !q_rel = List.rev !r_rel
      && Vc.to_array (Broadcast.Delay_queue.delivered_vc q)
         = r.Delay_reference.delivered)

(* ------------------------------------------------------------------ *)
(* Order_state *)

let mid origin seq = { Broadcast.Msg_id.origin; cls = Broadcast.Msg_id.Total; seq }

let test_order_basic () =
  let o = Broadcast.Order_state.create () in
  check_int "next 0" 0 (Broadcast.Order_state.next_deliver o);
  Alcotest.(check (list int)) "arrival without order" []
    (List.map (fun r -> r.Broadcast.Order_state.global_seq)
       (Broadcast.Order_state.note_arrival o (mid 0 1) "a"));
  match Broadcast.Order_state.note_order o (mid 0 1) ~global_seq:0 with
  | [ r ] ->
    check_int "slot" 0 r.Broadcast.Order_state.global_seq;
    check_int "next" 1 (Broadcast.Order_state.next_deliver o)
  | _ -> Alcotest.fail "order+arrival should deliver"

let test_order_waits_for_slot_zero () =
  let o = Broadcast.Order_state.create () in
  ignore (Broadcast.Order_state.note_arrival o (mid 0 1) "a");
  ignore (Broadcast.Order_state.note_arrival o (mid 1 1) "b");
  (match Broadcast.Order_state.note_order o (mid 1 1) ~global_seq:1 with
  | [] -> ()
  | _ -> Alcotest.fail "slot 1 must wait for slot 0");
  match Broadcast.Order_state.note_order o (mid 0 1) ~global_seq:0 with
  | [ r0; r1 ] ->
    check_int "slot0" 0 r0.Broadcast.Order_state.global_seq;
    check_int "slot1" 1 r1.Broadcast.Order_state.global_seq
  | _ -> Alcotest.fail "both deliver in order"

let test_order_first_assignment_wins () =
  let o = Broadcast.Order_state.create () in
  ignore (Broadcast.Order_state.note_order o (mid 0 1) ~global_seq:0);
  ignore (Broadcast.Order_state.note_order o (mid 0 1) ~global_seq:5);
  Alcotest.(check (option int)) "kept first" (Some 0)
    (Broadcast.Order_state.assignment_of o (mid 0 1));
  ignore (Broadcast.Order_state.note_order o (mid 1 1) ~global_seq:0);
  Alcotest.(check (option int)) "slot conflict ignored" None
    (Broadcast.Order_state.assignment_of o (mid 1 1))

let test_order_sync_roundtrip () =
  let a = Broadcast.Order_state.create () in
  ignore (Broadcast.Order_state.note_order a (mid 0 1) ~global_seq:0);
  ignore (Broadcast.Order_state.note_order a (mid 2 1) ~global_seq:1);
  let b = Broadcast.Order_state.create () in
  ignore (Broadcast.Order_state.note_arrival b (mid 0 1) "x");
  ignore (Broadcast.Order_state.note_arrival b (mid 2 1) "y");
  let ready = Broadcast.Order_state.adopt b (Broadcast.Order_state.known_assignments a) in
  check_int "sync delivers both" 2 (List.length ready);
  check_int "max assigned" 1 (Broadcast.Order_state.max_assigned b)

let test_order_unordered_arrivals () =
  let o = Broadcast.Order_state.create () in
  ignore (Broadcast.Order_state.note_arrival o (mid 0 1) "a");
  ignore (Broadcast.Order_state.note_arrival o (mid 1 1) "b");
  ignore (Broadcast.Order_state.note_order o (mid 0 1) ~global_seq:0);
  Alcotest.(check int) "one unordered" 1
    (List.length (Broadcast.Order_state.unordered_arrivals o))

let test_order_fast_forward () =
  let o = Broadcast.Order_state.create () in
  ignore (Broadcast.Order_state.note_arrival o (mid 0 1) "a");
  ignore (Broadcast.Order_state.note_order o (mid 0 1) ~global_seq:0);
  let o2 = Broadcast.Order_state.create () in
  Broadcast.Order_state.fast_forward o2 ~next_deliver:5;
  check_int "jumped" 5 (Broadcast.Order_state.next_deliver o2);
  ignore (Broadcast.Order_state.adopt o2 [ (mid 3 1), 3 ]);
  check_int "stale assignment dropped" 0 (Broadcast.Order_state.pending_count o2)

(* The packed message key names one id, and [of_key] unpacks it: every
   pair of a random list over origins in [0, max_sites), the three
   classes, and sequence numbers from a few up to far beyond any run's. *)
let prop_msg_id_key_packs =
  let module M = Broadcast.Msg_id in
  QCheck.Test.make ~name:"msg id key is injective and unpacks" ~count:500
    QCheck.(
      list_of_size (Gen.int_range 2 40)
        (triple (int_bound (Net.Site_id.max_sites - 1)) (int_bound 2)
           (oneof [ int_bound 3; int_bound 100; int_bound (1 lsl 40) ])))
    (fun triples ->
      let cls = [| M.Reliable; M.Causal; M.Total |] in
      let ids =
        List.map (fun (origin, c, seq) -> { M.origin; cls = cls.(c); seq }) triples
      in
      List.for_all
        (fun a ->
          M.equal (M.of_key (M.key a)) a
          && List.for_all (fun b -> (M.key a = M.key b) = M.equal a b) ids)
        ids)

(* Random call sequences for the hash-table rewrite and the map-and-list
   reference it replaced. Ids come from 4 origins x 6 seqs and slots from
   0-15, so repeated arrivals, duplicate ids, taken slots and slots below
   the delivery position are all common. An arrival's payload is its step
   number. Long scripts (64 seqs, 256 slots, up to 600 steps) build the
   backlogs that make the arrival queue drop its assigned entries in
   place. *)
type order_op =
  | Arrive of Broadcast.Msg_id.t
  | Order of Broadcast.Msg_id.t * int
  | Adopt of (Broadcast.Msg_id.t * int) list
  | Fast_forward of int

let order_space ~seqs = List.concat (List.init 4 (fun o -> List.init seqs (mid o)))

let gen_order_ops ?(seqs = 6) ?(slots = 16) ?(max_ops = 60) seed =
  let rng = Sim.Rng.create ~seed in
  let id () = mid (Sim.Rng.int rng 4) (Sim.Rng.int rng seqs) in
  (* Half the assignments act like a sequencer: the oldest arrival not yet
     assigned gets the next slot in turn, so runs of deliveries happen too.
     The rest pair any id with any slot. *)
  let waiting = Queue.create () and turn = ref 0 in
  let assignment () =
    if Sim.Rng.bool rng || Queue.is_empty waiting then
      (id (), Sim.Rng.int rng slots)
    else begin
      let seq = !turn in
      turn := (seq + 1) mod slots;
      (Queue.pop waiting, seq)
    end
  in
  List.init
    (1 + Sim.Rng.int rng max_ops)
    (fun _ ->
      match Sim.Rng.int rng 20 with
      | r when r < 9 ->
        let id = id () in
        Queue.push id waiting;
        Arrive id
      | r when r < 16 ->
        let id, global_seq = assignment () in
        Order (id, global_seq)
      | r when r < 19 -> Adopt (List.init (Sim.Rng.int rng 5) (fun _ -> assignment ()))
      | _ -> Fast_forward (Sim.Rng.int rng (slots + 1)))

let pp_order_op ppf = function
  | Arrive id -> Format.fprintf ppf "arrive %a" Broadcast.Msg_id.pp id
  | Order (id, s) -> Format.fprintf ppf "order %a@%d" Broadcast.Msg_id.pp id s
  | Adopt l ->
    Format.fprintf ppf "adopt [%a]"
      (Format.pp_print_list ~pp_sep:Format.pp_print_space (fun ppf (id, s) ->
           Format.fprintf ppf "%a@%d" Broadcast.Msg_id.pp id s))
      l
  | Fast_forward n -> Format.fprintf ppf "fast_forward %d" n

(* After every step: the ready list, the counters, every known assignment,
   and each id's assignment; the unassigned arrivals in order after every
   [sweep_every]th step and the last, as a sequencer's sweeps would read
   them (a site that is not the sequencer never does). *)
let order_matches_reference ?(seqs = 6) ?slots ?max_ops ?(sweep_every = 1) seed =
  let module O = Broadcast.Order_state in
  let module R = Order_state_reference in
  let o = O.create () and r = R.create () in
  let ops = gen_order_ops ~seqs ?slots ?max_ops seed in
  let step i op =
    let got, want =
      match op with
      | Arrive id -> (O.note_arrival o id i, R.note_arrival r id i)
      | Order (id, global_seq) ->
        (O.note_order o id ~global_seq, R.note_order r id ~global_seq)
      | Adopt l -> (O.adopt o l, R.adopt r l)
      | Fast_forward next_deliver ->
        O.fast_forward o ~next_deliver;
        R.fast_forward r ~next_deliver;
        ([], [])
    in
    let differs what =
      QCheck.Test.fail_reportf "step %d (%a): %s differs after@.%a" i
        pp_order_op op what
        (Format.pp_print_list pp_order_op)
        (List.filteri (fun j _ -> j <= i) ops)
    in
    if got <> want then differs "the ready list";
    if O.next_deliver o <> R.next_deliver r then differs "next_deliver";
    if O.max_assigned o <> R.max_assigned r then differs "max_assigned";
    if O.pending_count o <> R.pending_count r then differs "pending_count";
    let unordered = R.unordered_arrivals r in
    if
      ((i + 1) mod sweep_every = 0 || i = List.length ops - 1)
      && O.unordered_arrivals o <> unordered
    then differs "unordered_arrivals";
    if O.unassigned_count o <> List.length unordered then
      differs "unassigned_count";
    if O.known_assignments o <> R.known_assignments r then
      differs "known_assignments";
    List.iter
      (fun id ->
        if O.assignment_of o id <> R.assignment_of r id then
          differs (Format.asprintf "assignment_of %a" Broadcast.Msg_id.pp id))
      (order_space ~seqs)
  in
  List.iteri step ops;
  true

let prop_order_matches_reference =
  QCheck.Test.make ~name:"order state matches the map-and-list reference"
    ~count:2000
    QCheck.(int_bound 1_000_000)
    order_matches_reference

let prop_order_long_backlogs =
  QCheck.Test.make
    ~name:"order state matches the map-and-list reference on long backlogs"
    ~count:100
    QCheck.(int_bound 1_000_000)
    (order_matches_reference ~seqs:64 ~slots:256 ~max_ops:600 ~sweep_every:50)

(* The generator reaches each case the property is meant to cover, in at
   least a tenth of the first 500 sequences. *)
let test_order_generator_coverage () =
  let module R = Order_state_reference in
  let counts = Hashtbl.create 8 in
  for seed = 0 to 499 do
    let seen = Hashtbl.create 8 in
    let saw case = Hashtbl.replace seen case () in
    let r = R.create () in
    let below_next seq = seq < R.next_deliver r in
    let assign ?(adopted = false) (id, seq) =
      let fresh_id = R.assignment_of r id = None in
      let fresh_slot = not (R.Int_map.mem seq r.R.slot) in
      if not fresh_id then saw "duplicate id";
      if not fresh_slot then saw "slot taken";
      if below_next seq then saw "slot below next_deliver";
      if fresh_id && fresh_slot then
        if not (Broadcast.Msg_id.Map.mem id r.R.arrived) then
          saw "order before its arrival"
        else if adopted then saw "adopt orders a waiting arrival"
    in
    let run ready = if List.length ready > 1 then saw "run of deliveries" in
    List.iteri
      (fun i op ->
        match op with
        | Arrive id ->
          if Broadcast.Msg_id.Map.mem id r.R.arrived then saw "repeated arrival";
          if Option.fold ~none:false ~some:below_next (R.assignment_of r id) then
            saw "arrival behind its slot";
          run (R.note_arrival r id i)
        | Order (id, global_seq) ->
          assign (id, global_seq);
          run (R.note_order r id ~global_seq)
        | Adopt l ->
          List.iter (assign ~adopted:true) l;
          run (R.adopt r l)
        | Fast_forward next_deliver ->
          let before = R.pending_count r in
          R.fast_forward r ~next_deliver;
          if R.pending_count r < before then saw "fast_forward drops an arrival")
      (gen_order_ops seed);
    Hashtbl.iter
      (fun case () ->
        Hashtbl.replace counts case
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts case)))
      seen
  done;
  List.iter
    (fun case ->
      let n = Option.value ~default:0 (Hashtbl.find_opt counts case) in
      check_bool (Printf.sprintf "%s in %d of 500 sequences" case n) true (n >= 50))
    [
      "repeated arrival";
      "arrival behind its slot";
      "run of deliveries";
      "duplicate id";
      "slot taken";
      "slot below next_deliver";
      "order before its arrival";
      "adopt orders a waiting arrival";
      "fast_forward drops an arrival";
    ]

(* ------------------------------------------------------------------ *)
(* View *)

let test_view () =
  let v = Broadcast.View.initial ~n:5 in
  check_int "size" 5 (Broadcast.View.size v);
  check_bool "primary" true (Broadcast.View.is_primary v ~n_total:5);
  Alcotest.(check int) "coordinator" 0 (Broadcast.View.coordinator v);
  let v1 = Broadcast.View.remove v 0 in
  Alcotest.(check int) "failover to next" 1 (Broadcast.View.coordinator v1);
  check_int "id bumped" 1 v1.Broadcast.View.id;
  let v2 = Broadcast.View.remove (Broadcast.View.remove v1 2) 3 in
  check_bool "minority" false (Broadcast.View.is_primary v2 ~n_total:5);
  (* sticky coordinator: re-adding site 0 does not reclaim the role *)
  let v3 = Broadcast.View.add v1 0 in
  Alcotest.(check int) "sticky coordinator" 1 (Broadcast.View.coordinator v3)

(* ------------------------------------------------------------------ *)
(* Endpoint groups, end to end *)

type rcv = { r_site : int; r_payload : string; r_seq : int option; r_vc : Vc.t option }

let setup ?(n = 4) ?(seed = 3) ?hb_interval ?suspect_after ?batch ?tx_time () =
  let engine = Sim.Engine.create ~seed () in
  let group =
    Ep.create_group engine ~n ~latency:Net.Latency.lan ?hb_interval
      ?suspect_after ?batch ?tx_time ()
  in
  let log = ref [] in
  Array.iter
    (fun ep ->
      Ep.set_deliver ep (fun d ->
          log :=
            {
              r_site = Ep.site ep;
              r_payload = d.Ep.payload;
              r_seq = d.Ep.global_seq;
              r_vc = d.Ep.vc;
            }
            :: !log);
      Ep.set_snapshot_hooks ep ~get:(fun () -> "snapshot") ~install:(fun _ -> ()))
    (Ep.endpoints group);
  (engine, group, log)

let per_site log site =
  List.rev_map (fun r -> r) !log
  |> List.filter (fun r -> r.r_site = site)

let test_reliable_reaches_all () =
  let engine, group, log = setup () in
  let ep0 = (Ep.endpoints group).(0) in
  ignore (Ep.broadcast ep0 `Reliable "hello");
  Sim.Engine.run_until engine (Sim.Time.of_ms 40);
  for s = 0 to 3 do
    Alcotest.(check (list string)) "delivered once"
      [ "hello" ]
      (List.map (fun r -> r.r_payload) (per_site log s))
  done

let test_reliable_fifo_per_origin () =
  let engine, group, log = setup () in
  let ep0 = (Ep.endpoints group).(0) in
  for i = 0 to 19 do
    ignore (Ep.broadcast ep0 `Reliable (string_of_int i))
  done;
  Sim.Engine.run_until engine (Sim.Time.of_ms 100);
  for s = 0 to 3 do
    Alcotest.(check (list string)) "fifo"
      (List.init 20 string_of_int)
      (List.map (fun r -> r.r_payload) (per_site log s))
  done

let test_causal_order_across_sites () =
  let engine, group, log = setup () in
  let eps = Ep.endpoints group in
  (* site 0 broadcasts a; once site 1 delivers a it broadcasts b; b must
     never be delivered before a anywhere *)
  Ep.set_deliver eps.(1) (fun d ->
      log := { r_site = 1; r_payload = d.Ep.payload; r_seq = None; r_vc = d.Ep.vc } :: !log;
      if d.Ep.payload = "a" then ignore (Ep.broadcast eps.(1) `Causal "b"));
  ignore (Ep.broadcast eps.(0) `Causal "a");
  Sim.Engine.run_until engine (Sim.Time.of_ms 100);
  for s = 0 to 3 do
    match List.map (fun r -> r.r_payload) (per_site log s) with
    | [ "a"; "b" ] -> ()
    | other ->
      Alcotest.failf "site %d saw %s" s (String.concat "," other)
  done

let test_total_order_agreement () =
  let engine, group, log = setup ~n:5 () in
  let eps = Ep.endpoints group in
  (* concurrent total broadcasts from every site *)
  for s = 0 to 4 do
    for i = 0 to 4 do
      ignore (Ep.broadcast eps.(s) `Total (Printf.sprintf "%d-%d" s i))
    done
  done;
  Sim.Engine.run_until engine (Sim.Time.of_sec 1.0);
  let seq0 = List.map (fun r -> r.r_payload) (per_site log 0) in
  check_int "all delivered" 25 (List.length seq0);
  for s = 1 to 4 do
    Alcotest.(check (list string)) "same total order everywhere" seq0
      (List.map (fun r -> r.r_payload) (per_site log s))
  done;
  (* global sequence numbers are contiguous from 0 *)
  let seqs = List.filter_map (fun r -> r.r_seq) (per_site log 2) in
  Alcotest.(check (list int)) "contiguous" (List.init 25 Fun.id) seqs

let test_total_consistent_with_causal () =
  let engine, group, log = setup () in
  let eps = Ep.endpoints group in
  (* causal write then total commit from same site: commit never first *)
  ignore (Ep.broadcast eps.(2) `Causal "w");
  ignore (Ep.broadcast eps.(2) `Total "c");
  Sim.Engine.run_until engine (Sim.Time.of_ms 200);
  for s = 0 to 3 do
    Alcotest.(check (list string)) "w before c" [ "w"; "c" ]
      (List.map (fun r -> r.r_payload) (per_site log s))
  done

let test_stamp_exposed () =
  let engine, group, log = setup () in
  let eps = Ep.endpoints group in
  let stamp = Ep.broadcast eps.(1) `Causal "m" in
  check_bool "stamped" true (stamp.Ep.msg_vc <> None);
  Sim.Engine.run_until engine (Sim.Time.of_ms 40);
  let d = List.hd (per_site log 3) in
  check_bool "delivery carries same stamp" true
    (match d.r_vc, stamp.Ep.msg_vc with
    | Some a, Some b -> Vc.equal a b
    | _ -> false)

let test_sequencer_failover () =
  let engine, group, log = setup ~n:5 () in
  let eps = Ep.endpoints group in
  for i = 0 to 4 do
    ignore (Ep.broadcast eps.(1) `Total (Printf.sprintf "pre-%d" i))
  done;
  Sim.Engine.run_until engine (Sim.Time.of_ms 300);
  (* kill the sequencer (site 0), wait for the view change and sync *)
  Ep.crash group 0;
  Sim.Engine.run_until engine (Sim.Time.of_sec 1.0);
  check_bool "view changed" true (not (Broadcast.View.mem (Ep.view eps.(1)) 0));
  check_bool "new coordinator" true
    (Net.Site_id.equal (Broadcast.View.coordinator (Ep.view eps.(1))) 1);
  for i = 0 to 4 do
    ignore (Ep.broadcast eps.(2) `Total (Printf.sprintf "post-%d" i))
  done;
  Sim.Engine.run_until engine (Sim.Time.of_sec 2.0);
  let survivors = [ 1; 2; 3; 4 ] in
  let seq1 = List.map (fun r -> r.r_payload) (per_site log 1) in
  check_int "all ten delivered at survivor" 10 (List.length seq1);
  List.iter
    (fun s ->
      Alcotest.(check (list string)) "same order after failover" seq1
        (List.map (fun r -> r.r_payload) (per_site log s)))
    survivors

let test_majority_views () =
  let engine, group, _log = setup ~n:5 () in
  let eps = Ep.endpoints group in
  Ep.crash group 3;
  Ep.crash group 4;
  Sim.Engine.run_until engine (Sim.Time.of_sec 1.0);
  check_bool "3 of 5 still primary" true (Ep.is_primary eps.(0));
  Ep.crash group 2;
  Sim.Engine.run_until engine (Sim.Time.of_sec 2.0);
  check_bool "2 of 5 not primary" false (Ep.is_primary eps.(0));
  check_int "view size" 2 (Broadcast.View.size (Ep.view eps.(0)))

let test_join_rejoins_and_catches_up () =
  let engine, group, log = setup ~n:4 () in
  let eps = Ep.endpoints group in
  ignore (Ep.broadcast eps.(1) `Causal "before");
  Sim.Engine.run_until engine (Sim.Time.of_ms 100);
  Ep.crash group 3;
  Sim.Engine.run_until engine (Sim.Time.of_sec 1.0);
  ignore (Ep.broadcast eps.(1) `Causal "while-down");
  Sim.Engine.run_until engine (Sim.Time.of_sec 1.5);
  Ep.recover group 3;
  Sim.Engine.run_until engine (Sim.Time.of_sec 4.0);
  check_bool "rejoined" true (Ep.is_ready eps.(3));
  check_bool "back in view" true (Broadcast.View.mem (Ep.view eps.(0)) 3);
  (* new traffic reaches the joiner *)
  ignore (Ep.broadcast eps.(1) `Causal "after");
  Sim.Engine.run_until engine (Sim.Time.of_sec 4.5);
  let got = List.map (fun r -> r.r_payload) (per_site log 3) in
  check_bool "joiner sees post-join traffic" true (List.mem "after" got);
  check_bool "joiner did not re-deliver missed traffic (snapshot covers it)"
    true
    (not (List.mem "while-down" got))

let test_joiner_can_broadcast_after_join () =
  let engine, group, log = setup ~n:3 () in
  let eps = Ep.endpoints group in
  Ep.crash group 2;
  Sim.Engine.run_until engine (Sim.Time.of_sec 1.0);
  Ep.recover group 2;
  Sim.Engine.run_until engine (Sim.Time.of_sec 4.0);
  check_bool "ready" true (Ep.is_ready eps.(2));
  ignore (Ep.broadcast eps.(2) `Causal "fresh");
  Sim.Engine.run_until engine (Sim.Time.of_sec 4.5);
  List.iter
    (fun s ->
      check_bool
        (Printf.sprintf "site %d delivers joiner traffic" s)
        true
        (List.mem "fresh" (List.map (fun r -> r.r_payload) (per_site log s))))
    [ 0; 1; 2 ]

(* A join after the joiner's stream has wrapped every member's recent log
   (128 messages per origin). The joiner's last messages reach sites 0 and
   1 but not site 2, which the join flush must then bring up to date from
   the newest entries of the others' logs. The flush delivers a stream's
   reliable messages before its causal ones, so sequences are compared per
   origin and class. *)
let test_join_after_recent_log_wraps () =
  let engine, group, log = setup ~n:4 () in
  let eps = Ep.endpoints group in
  let send site i =
    let cls, tag = if i mod 2 = 0 then (`Reliable, "r") else (`Causal, "c") in
    ignore (Ep.broadcast eps.(site) cls (Printf.sprintf "%d:%s:%d" site tag i))
  in
  for i = 0 to 129 do
    send 3 i;
    if i mod 10 = 0 then send (i / 10 mod 3) i
  done;
  Sim.Engine.run_until engine (Sim.Time.of_ms 100);
  Ep.partition group [ 2 ];
  for i = 130 to 141 do
    send 3 i
  done;
  Ep.heal group;
  Ep.crash group 3;
  Sim.Engine.run_until engine (Sim.Time.of_sec 1.0);
  check_bool "joiner expelled" false (Broadcast.View.mem (Ep.view eps.(0)) 3);
  let delivered site = List.length (per_site log site) in
  check_int "site 2 missed the joiner's last 12" (delivered 0 - 12) (delivered 2);
  Ep.recover group 3;
  Sim.Engine.run_until engine (Sim.Time.of_sec 4.0);
  check_bool "join completed" true (Ep.is_ready eps.(3));
  check_bool "joiner back in view" true (Broadcast.View.mem (Ep.view eps.(2)) 3);
  send 3 300;
  Sim.Engine.run_until engine (Sim.Time.of_sec 4.5);
  let from site origin tag =
    List.filter
      (fun p ->
        match String.split_on_char ':' p with
        | [ o; c; _ ] -> int_of_string o = origin && c = tag
        | _ -> false)
      (List.map (fun r -> r.r_payload) (per_site log site))
  in
  check_int "site 0 delivered all of the joiner's stream" 143
    (List.length (from 0 3 "r" @ from 0 3 "c"));
  for origin = 0 to 3 do
    List.iter
      (fun (site, tag) ->
        Alcotest.(check (list string))
          (Printf.sprintf "site %d, origin %d, class %s: as at site 0" site origin tag)
          (from 0 origin tag) (from site origin tag))
      [ (1, "r"); (1, "c"); (2, "r"); (2, "c") ]
  done;
  check_bool "joiner delivers its post-join message" true
    (List.mem "3:r:300" (List.map (fun r -> r.r_payload) (per_site log 3)))

let test_flood_still_exactly_once () =
  let engine = Sim.Engine.create ~seed:9 () in
  let group = Ep.create_group engine ~n:4 ~latency:Net.Latency.lan ~flood:true () in
  let log = ref [] in
  Array.iter
    (fun ep ->
      Ep.set_deliver ep (fun d ->
          log := { r_site = Ep.site ep; r_payload = d.Ep.payload; r_seq = None; r_vc = None } :: !log))
    (Ep.endpoints group);
  ignore (Ep.broadcast (Ep.endpoints group).(0) `Reliable "once");
  Sim.Engine.run_until engine (Sim.Time.of_ms 200);
  for s = 0 to 3 do
    check_int
      (Printf.sprintf "site %d exactly once" s)
      1
      (List.length (per_site log s))
  done;
  check_bool "relays counted" true
    (Net.Net_stats.datagrams_for (Ep.stats group) ~category:"relay" > 0)


(* ------------------------------------------------------------------ *)
(* Total_lamport: the distributed atomic broadcast variant *)

module Tl = Broadcast.Total_lamport

let setup_lamport ?(n = 4) ?(seed = 13) () =
  let engine = Sim.Engine.create ~seed () in
  let group = Tl.create_group engine ~n ~latency:Net.Latency.lan () in
  let log = ref [] in
  Array.iter
    (fun ep ->
      Tl.set_deliver ep (fun ~origin:_ ~global_seq payload ->
          log := (Tl.site ep, global_seq, payload) :: !log))
    (Tl.endpoints group);
  (engine, group, log)

let lamport_per_site log site =
  List.rev !log
  |> List.filter (fun (s, _, _) -> s = site)
  |> List.map (fun (_, seq, p) -> (seq, p))

let test_lamport_total_order () =
  let engine, group, log = setup_lamport () in
  let eps = Tl.endpoints group in
  for s = 0 to 3 do
    for i = 0 to 4 do
      Tl.broadcast eps.(s) (Printf.sprintf "%d-%d" s i)
    done
  done;
  Sim.Engine.run_until engine (Sim.Time.of_sec 1.0);
  let seq0 = lamport_per_site log 0 in
  check_int "all delivered" 20 (List.length seq0);
  Alcotest.(check (list int)) "contiguous seqs" (List.init 20 Fun.id)
    (List.map fst seq0);
  for s = 1 to 3 do
    Alcotest.(check (list (pair int string))) "identical order" seq0
      (lamport_per_site log s)
  done

let test_lamport_sender_delivers_own () =
  let engine, group, log = setup_lamport ~n:3 () in
  Tl.broadcast (Tl.endpoints group).(1) "solo";
  Sim.Engine.run_until engine (Sim.Time.of_sec 1.0);
  for s = 0 to 2 do
    Alcotest.(check (list (pair int string)))
      (Printf.sprintf "site %d" s)
      [ (0, "solo") ]
      (lamport_per_site log s)
  done

let test_lamport_costs_more_than_sequencer () =
  (* the propose/final round means ~3n datagrams vs the sequencer's n+1 *)
  let engine, group, _log = setup_lamport ~n:5 () in
  Tl.broadcast (Tl.endpoints group).(2) "m";
  Sim.Engine.run_until engine (Sim.Time.of_sec 1.0);
  let d = Net.Net_stats.datagrams (Tl.stats group) in
  check_int "datagrams for one broadcast" 15 d

(* Equal-stamp regression. All members of a frame share one final Lamport
   stamp, so the hold-back pool holds several entries whose stamps compare
   equal. The pre-fix [drain] released an entry only when its stamp was
   STRICTLY minimal over the whole pool ([Stamp.compare ... < 0] against
   every other entry): two equal-stamped entries each failed the test
   against the other, nothing was ever released, and every frame of two or
   more messages livelocked — this test then fails with zero deliveries.
   The fix breaks ties by (stamp, origin, seq). *)
let test_lamport_frame_equal_stamps () =
  let engine, group, log = setup_lamport ~n:3 () in
  Tl.broadcast_many (Tl.endpoints group).(1) [ "a"; "b"; "c"; "d" ];
  Sim.Engine.run_until engine (Sim.Time.of_sec 1.0);
  for s = 0 to 2 do
    Alcotest.(check (list (pair int string)))
      (Printf.sprintf "site %d: frame delivered contiguously in sender order" s)
      [ (0, "a"); (1, "b"); (2, "c"); (3, "d") ]
      (lamport_per_site log s)
  done

(* Frames from several senders racing: every site agrees on one total
   order, delivers everything exactly once with contiguous global
   sequence numbers, and each frame's members stay contiguous and in
   sender order within it (they share a final stamp, so only the
   (origin, seq) tie-break orders them). *)
let test_lamport_interleaved_frames () =
  let engine, group, log = setup_lamport ~n:4 ~seed:21 () in
  let eps = Tl.endpoints group in
  Tl.broadcast_many eps.(0) [ "0a"; "0b"; "0c" ];
  Tl.broadcast_many eps.(2) [ "2a"; "2b" ];
  Tl.broadcast eps.(3) "3a";
  Tl.broadcast_many eps.(1) [ "1a"; "1b"; "1c"; "1d" ];
  Sim.Engine.run_until engine (Sim.Time.of_sec 1.0);
  let seq0 = lamport_per_site log 0 in
  check_int "all delivered" 10 (List.length seq0);
  Alcotest.(check (list int)) "contiguous seqs" (List.init 10 Fun.id)
    (List.map fst seq0);
  for s = 1 to 3 do
    Alcotest.(check (list (pair int string))) "identical order" seq0
      (lamport_per_site log s)
  done;
  (* frame members contiguous, in sender order *)
  let payloads = List.map snd seq0 in
  let positions frame =
    List.map
      (fun p ->
        let rec find k = function
          | [] -> Alcotest.failf "missing %s" p
          | q :: _ when q = p -> k
          | _ :: rest -> find (k + 1) rest
        in
        find 0 payloads)
      frame
  in
  List.iter
    (fun frame ->
      match positions frame with
      | first :: rest ->
        ignore
          (List.fold_left
             (fun prev pos ->
               check_int "frame contiguous in sender order" (prev + 1) pos;
               pos)
             first rest)
      | [] -> ())
    [ [ "0a"; "0b"; "0c" ]; [ "2a"; "2b" ]; [ "1a"; "1b"; "1c"; "1d" ] ]

(* ------------------------------------------------------------------ *)
(* Partitions at the endpoint level *)

let test_partition_majority_primary () =
  let engine, group, log = setup ~n:5 () in
  let eps = Ep.endpoints group in
  Ep.partition group [ 3; 4 ];
  Sim.Engine.run_until engine (Sim.Time.of_sec 1.0);
  check_bool "majority side primary" true (Ep.is_primary eps.(0));
  check_bool "minority side not primary" false (Ep.is_primary eps.(3));
  (* majority-side traffic still flows among the majority *)
  ignore (Ep.broadcast eps.(1) `Causal "maj");
  Sim.Engine.run_until engine (Sim.Time.of_sec 1.5);
  List.iter
    (fun s ->
      check_bool
        (Printf.sprintf "site %d got it" s)
        true
        (List.mem "maj" (List.map (fun r -> r.r_payload) (per_site log s))))
    [ 0; 1; 2 ];
  check_bool "minority did not" true
    (not (List.mem "maj" (List.map (fun r -> r.r_payload) (per_site log 3))))


let test_delivery_survives_sender_crash () =
  (* A datagram leaves its source at send time: a broadcast followed
     immediately by the sender's crash still reaches every other up site
     (the physical broadcast is all-or-nothing at the send instant). *)
  let engine, group, log = setup () in
  let eps = Ep.endpoints group in
  Sim.Engine.run_until engine (Sim.Time.of_ms 10);
  ignore (Ep.broadcast eps.(0) `Reliable "last-words");
  Ep.crash group 0;
  Sim.Engine.run_until engine (Sim.Time.of_ms 60);
  List.iter
    (fun s ->
      Alcotest.(check (list string))
        (Printf.sprintf "site %d delivers the crashed sender's message" s)
        [ "last-words" ]
        (List.map (fun r -> r.r_payload) (per_site log s)))
    [ 1; 2; 3 ];
  Alcotest.(check (list string)) "the crashed sender itself delivers nothing"
    [] (List.map (fun r -> r.r_payload) (per_site log 0))

let test_partition_minority_never_orders () =
  (* a total broadcast issued inside a minority partition must not be
     delivered anywhere — ordering is a commitment the minority cannot make *)
  let engine, group, log = setup ~n:5 () in
  let eps = Ep.endpoints group in
  Sim.Engine.run_until engine (Sim.Time.of_ms 50);
  Ep.partition group [ 3; 4 ];
  Sim.Engine.run_until engine (Sim.Time.of_sec 1.0);
  ignore (Ep.broadcast eps.(3) `Total "minority-commit");
  ignore (Ep.broadcast eps.(0) `Total "majority-commit");
  Sim.Engine.run_until engine (Sim.Time.of_sec 2.0);
  for s = 0 to 4 do
    check_bool
      (Printf.sprintf "site %d never delivers the minority's total" s)
      true
      (not (List.mem "minority-commit" (List.map (fun r -> r.r_payload) (per_site log s))))
  done;
  List.iter
    (fun s ->
      check_bool
        (Printf.sprintf "majority site %d delivers its own" s)
        true
        (List.mem "majority-commit" (List.map (fun r -> r.r_payload) (per_site log s))))
    [ 0; 1; 2 ]


(* Regression for the batch-stamp bug: a message broadcast from inside a
   delivery handler must never be delivered anywhere before the message
   whose handler sent it — even when the delay queue releases bursts of
   messages in one batch. Site 1 replies to every delivery from site 0;
   every site must see each original before its reply. *)
let test_reply_never_overtakes_cause () =
  let engine = Sim.Engine.create ~seed:31 () in
  let group = Ep.create_group engine ~n:4 ~latency:Net.Latency.lan () in
  let eps = Ep.endpoints group in
  let log = Array.init 4 (fun _ -> ref []) in
  Array.iteri
    (fun s ep ->
      Ep.set_deliver ep (fun d ->
          log.(s) := d.Ep.payload :: !(log.(s));
          if s = 1 then begin
            match d.Ep.payload with
            | `Msg i -> ignore (Ep.broadcast eps.(1) `Causal (`Reply i))
            | `Reply _ -> ()
          end))
    eps;
  (* bursts from several sites force multi-message release batches *)
  for i = 0 to 39 do
    ignore (Ep.broadcast eps.(0) `Causal (`Msg i));
    if i mod 3 = 0 then ignore (Ep.broadcast eps.(2) `Causal (`Msg (1000 + i)));
    if i mod 5 = 0 then ignore (Ep.broadcast eps.(3) `Causal (`Msg (2000 + i)))
  done;
  Sim.Engine.run_until engine (Sim.Time.of_sec 2.0);
  Array.iteri
    (fun s l ->
      let seq = List.rev !l in
      List.iteri
        (fun reply_pos p ->
          match p with
          | `Reply i ->
            let cause_pos =
              let rec find k = function
                | [] -> -1
                | `Msg j :: _ when j = i -> k
                | _ :: rest -> find (k + 1) rest
              in
              find 0 seq
            in
            check_bool
              (Printf.sprintf "site %d: reply %d after its cause" s i)
              true
              (cause_pos >= 0 && cause_pos < reply_pos)
          | `Msg _ -> ())
        seq)
    log

(* ------------------------------------------------------------------ *)
(* Sender-side batching: frames on the wire, unchanged delivery contract *)

let batch4 = { Ep.max_msgs = 4; max_delay = Sim.Time.of_ms 1 }

let test_batched_total_order () =
  let engine, group, log = setup ~n:5 ~batch:batch4 () in
  let eps = Ep.endpoints group in
  for s = 0 to 4 do
    for i = 0 to 4 do
      ignore (Ep.broadcast eps.(s) `Total (Printf.sprintf "%d-%d" s i))
    done
  done;
  Sim.Engine.run_until engine (Sim.Time.of_sec 1.0);
  let seq0 = List.map (fun r -> r.r_payload) (per_site log 0) in
  check_int "all delivered" 25 (List.length seq0);
  for s = 1 to 4 do
    Alcotest.(check (list string)) "same total order everywhere" seq0
      (List.map (fun r -> r.r_payload) (per_site log s))
  done;
  let seqs = List.filter_map (fun r -> r.r_seq) (per_site log 2) in
  Alcotest.(check (list int)) "contiguous" (List.init 25 Fun.id) seqs

let test_batched_causal_order () =
  let engine, group, log = setup ~batch:batch4 () in
  let eps = Ep.endpoints group in
  Ep.set_deliver eps.(1) (fun d ->
      log := { r_site = 1; r_payload = d.Ep.payload; r_seq = None; r_vc = d.Ep.vc } :: !log;
      if d.Ep.payload = "a" then ignore (Ep.broadcast eps.(1) `Causal "b"));
  ignore (Ep.broadcast eps.(0) `Causal "a");
  Sim.Engine.run_until engine (Sim.Time.of_ms 100);
  for s = 0 to 3 do
    match List.map (fun r -> r.r_payload) (per_site log s) with
    | [ "a"; "b" ] -> ()
    | other -> Alcotest.failf "site %d saw %s" s (String.concat "," other)
  done

let test_batching_saves_datagrams () =
  (* The same burst, framed vs unframed: identical per-origin delivery
     sequences at every site (cross-origin interleaving is a timing
     artifact either way), strictly fewer wire datagrams. *)
  let run batch =
    let engine, group, log = setup ?batch () in
    let eps = Ep.endpoints group in
    for i = 0 to 15 do
      ignore (Ep.broadcast eps.(0) `Reliable (Printf.sprintf "r%d" i));
      ignore (Ep.broadcast eps.(1) `Causal (Printf.sprintf "c%d" i))
    done;
    Sim.Engine.run_until engine (Sim.Time.of_sec 1.0);
    let stream s prefix =
      List.filter
        (fun p -> String.length p > 0 && p.[0] = prefix)
        (List.map (fun r -> r.r_payload) (per_site log s))
    in
    let deliveries =
      List.concat_map (fun s -> [ stream s 'r'; stream s 'c' ]) [ 0; 1; 2; 3 ]
    in
    (deliveries, Net.Net_stats.datagrams (Ep.stats group))
  in
  let plain_deliv, plain_dgrams = run None in
  let batched_deliv, batched_dgrams =
    run (Some { Ep.max_msgs = 8; max_delay = Sim.Time.of_ms 1 })
  in
  Alcotest.(check (list (list string))) "same per-origin deliveries"
    plain_deliv batched_deliv;
  check_bool
    (Printf.sprintf "fewer datagrams (%d batched < %d plain)" batched_dgrams
       plain_dgrams)
    true
    (batched_dgrams < plain_dgrams)

let test_batched_open_frame_dies_with_sender () =
  (* A message parked in an open frame has not reached the wire: if the
     sender crashes before the flush timer fires, the message is gone —
     unlike [test_delivery_survives_sender_crash], where the datagram left
     at send time. After recovery the frame must not resurrect (recovery
     clears the open frame), and the group keeps working. *)
  let engine, group, log =
    setup ~batch:{ Ep.max_msgs = 64; max_delay = Sim.Time.of_ms 50 } ()
  in
  let eps = Ep.endpoints group in
  Sim.Engine.run_until engine (Sim.Time.of_ms 10);
  ignore (Ep.broadcast eps.(0) `Reliable "parked");
  Ep.crash group 0;
  Sim.Engine.run_until engine (Sim.Time.of_sec 2.0);
  for s = 0 to 3 do
    Alcotest.(check (list string))
      (Printf.sprintf "site %d: the parked message never left site 0" s)
      []
      (List.map (fun r -> r.r_payload) (per_site log s))
  done;
  Ep.recover group 0;
  Sim.Engine.run_until engine (Sim.Time.of_sec 6.0);
  check_bool "rejoined" true (Ep.is_ready eps.(0));
  ignore (Ep.broadcast eps.(1) `Causal "alive");
  Sim.Engine.run_until engine (Sim.Time.of_sec 6.5);
  for s = 0 to 3 do
    check_bool
      (Printf.sprintf "site %d delivers post-recovery traffic" s)
      true
      (List.mem "alive" (List.map (fun r -> r.r_payload) (per_site log s)))
  done

let test_batch_policy_validated () =
  let engine = Sim.Engine.create ~seed:1 () in
  Alcotest.check_raises "max_msgs >= 1 enforced"
    (Invalid_argument "Endpoint.create_group: batch.max_msgs < 1")
    (fun () ->
      ignore
        (Ep.create_group engine ~n:3 ~latency:Net.Latency.lan
           ~batch:{ Ep.max_msgs = 0; max_delay = Sim.Time.of_ms 1 }
           ()))

let test_batched_determinism () =
  let transcript seed =
    let engine, group, log = setup ~seed ~batch:batch4 () in
    let eps = Ep.endpoints group in
    for s = 0 to 3 do
      for i = 0 to 3 do
        ignore (Ep.broadcast eps.(s) `Total (Printf.sprintf "%d-%d" s i))
      done
    done;
    Sim.Engine.run_until engine (Sim.Time.of_sec 1.0);
    List.rev_map (fun r -> (r.r_site, r.r_payload)) !log
  in
  check_bool "same seed same run" true (transcript 5 = transcript 5)

(* Determinism: identical seeds give identical delivery transcripts. *)
let test_determinism () =
  let transcript seed =
    let engine, group, log = setup ~seed () in
    let eps = Ep.endpoints group in
    for s = 0 to 3 do
      for i = 0 to 3 do
        ignore (Ep.broadcast eps.(s) `Total (Printf.sprintf "%d-%d" s i))
      done
    done;
    Sim.Engine.run_until engine (Sim.Time.of_sec 1.0);
    List.rev_map (fun r -> (r.r_site, r.r_payload)) !log
  in
  check_bool "same seed same run" true (transcript 5 = transcript 5);
  check_bool "different seed differs" true (transcript 5 <> transcript 6)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "broadcast"
    [
      ( "fifo_state",
        [
          tc "in order" `Quick test_fifo_in_order;
          tc "gap then release" `Quick test_fifo_gap_then_release;
          tc "duplicates" `Quick test_fifo_duplicates;
          tc "origins independent" `Quick test_fifo_origins_independent;
          tc "fast forward" `Quick test_fifo_fast_forward;
          tc "out of order beyond one gap" `Quick
            test_fifo_out_of_order_beyond_one_gap;
          tc "purge" `Quick test_fifo_purge;
        ] );
      ( "delay_queue",
        [
          tc "causal order" `Quick test_delay_in_causal_order;
          tc "same-origin fifo" `Quick test_delay_same_origin_fifo;
          tc "duplicates" `Quick test_delay_duplicates;
          tc "fast forward" `Quick test_delay_fast_forward;
          tc "duplicate while gapped" `Quick test_delay_duplicate_while_gapped;
          tc "purge" `Quick test_delay_purge;
          tc "dimension check" `Quick test_delay_dimension_check;
          QCheck_alcotest.to_alcotest prop_delay_causal;
          QCheck_alcotest.to_alcotest prop_delay_matches_reference;
        ] );
      ( "order_state",
        [
          tc "basic" `Quick test_order_basic;
          tc "slot zero first" `Quick test_order_waits_for_slot_zero;
          tc "first assignment wins" `Quick test_order_first_assignment_wins;
          tc "sync roundtrip" `Quick test_order_sync_roundtrip;
          tc "unordered arrivals" `Quick test_order_unordered_arrivals;
          tc "fast forward" `Quick test_order_fast_forward;
          tc "generator coverage" `Quick test_order_generator_coverage;
          QCheck_alcotest.to_alcotest prop_order_matches_reference;
          QCheck_alcotest.to_alcotest prop_order_long_backlogs;
          QCheck_alcotest.to_alcotest prop_msg_id_key_packs;
        ] );
      ("view", [ tc "membership algebra" `Quick test_view ]);
      ( "endpoint",
        [
          tc "reliable reaches all" `Quick test_reliable_reaches_all;
          tc "reliable fifo" `Quick test_reliable_fifo_per_origin;
          tc "causal order across sites" `Quick test_causal_order_across_sites;
          tc "total order agreement" `Quick test_total_order_agreement;
          tc "total consistent with causal" `Quick test_total_consistent_with_causal;
          tc "stamps exposed" `Quick test_stamp_exposed;
          tc "determinism" `Quick test_determinism;
          tc "reply never overtakes its cause (batch stamping)" `Quick
            test_reply_never_overtakes_cause;
          tc "flood exactly once" `Quick test_flood_still_exactly_once;
        ] );
      ( "batching",
        [
          tc "batched total order agreement" `Quick test_batched_total_order;
          tc "batched causal order" `Quick test_batched_causal_order;
          tc "frames save datagrams" `Quick test_batching_saves_datagrams;
          tc "open frame dies with its sender" `Quick
            test_batched_open_frame_dies_with_sender;
          tc "batch policy validated" `Quick test_batch_policy_validated;
          tc "batched determinism" `Quick test_batched_determinism;
        ] );
      ( "failures",
        [
          tc "sequencer failover" `Quick test_sequencer_failover;
          tc "majority views" `Quick test_majority_views;
          tc "join catches up" `Quick test_join_rejoins_and_catches_up;
          tc "joiner can broadcast" `Quick test_joiner_can_broadcast_after_join;
          tc "join after the recent log wraps" `Quick test_join_after_recent_log_wraps;
          tc "partition: majority stays primary" `Quick test_partition_majority_primary;
          tc "delivery survives sender crash" `Quick
            test_delivery_survives_sender_crash;
          tc "partition: minority never orders" `Quick test_partition_minority_never_orders;
        ] );
      ( "total_lamport",
        [
          tc "total order agreement" `Quick test_lamport_total_order;
          tc "sender self-delivery" `Quick test_lamport_sender_delivers_own;
          tc "cost: 3n datagrams" `Quick test_lamport_costs_more_than_sequencer;
          tc "frame shares one stamp (equal-stamp livelock regression)" `Quick
            test_lamport_frame_equal_stamps;
          tc "interleaved frames agree" `Quick test_lamport_interleaved_frames;
        ] );
    ]
