(* Newest-value store, strict-2PL lock manager, deadlock detection. *)

module Vs = Db.Version_store
module Lm = Db.Lock_manager
module Txn = Db.Txn_id

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let txn i = Txn.make ~origin:0 ~local:i
let txn_at site i = Txn.make ~origin:site ~local:i

let txn_testable =
  Alcotest.testable Txn.pp Txn.equal

(* ------------------------------------------------------------------ *)
(* Version store *)

let test_store_basics () =
  let s = Vs.create () in
  check_int "unwritten reads 0" 0 (Vs.read_latest s 42);
  check_int "index starts 0" 0 (Vs.commit_index s);
  let i1 = Vs.apply s [ (1, 10); (2, 20) ] in
  check_int "first index" 1 i1;
  check_int "read" 10 (Vs.read_latest s 1);
  let i2 = Vs.apply s [ (1, 11) ] in
  check_int "second index" 2 i2;
  check_int "latest" 11 (Vs.read_latest s 1);
  check_int "other key stable" 20 (Vs.read_latest s 2);
  ignore (Vs.apply s [ (3, 30); (3, 31) ]);
  check_int "later value in one set wins" 31 (Vs.read_latest s 3)

let test_store_versions_writers () =
  let s = Vs.create () in
  ignore (Vs.apply s ~writer:(txn 1) [ (7, 70) ]);
  ignore (Vs.apply s ~writer:(txn 2) [ (7, 71) ]);
  check_int "version is last writer index" 2 (Vs.version_of s 7);
  check_bool "writer recorded" true (Vs.writer_of s 7 = Some (txn 2));
  check_int "unwritten version" 0 (Vs.version_of s 8);
  check_bool "unwritten writer" true (Vs.writer_of s 8 = None);
  ignore (Vs.apply s [ (7, 72) ]);
  check_bool "an unrecorded writer replaces a recorded one" true
    (Vs.writer_of s 7 = None);
  check_int "and still sets the version" 3 (Vs.version_of s 7)

let test_store_empty_writeset_advances () =
  let s = Vs.create () in
  let i = Vs.apply s [] in
  check_int "advances" 1 i;
  check_int "no keys" 0 (List.length (Vs.keys s))

let test_store_snapshot_restore () =
  let s = Vs.create () in
  ignore (Vs.apply s ~writer:(txn 1) [ (1, 5); (2, 6) ]);
  ignore (Vs.apply s ~writer:(txn 2) [ (1, 7) ]);
  let dump = Vs.snapshot s and fingerprint = Vs.fingerprint s in
  ignore (Vs.apply s ~writer:(txn 3) [ (1, 8); (3, 9) ]);
  let r = Vs.restore dump in
  check_int "index restored" 2 (Vs.commit_index r);
  check_int "value restored" 7 (Vs.read_latest r 1);
  check_int "fingerprints equal" fingerprint (Vs.fingerprint r);
  check_int "version restored" 1 (Vs.version_of r 2);
  check_bool "writer restored" true (Vs.writer_of r 1 = Some (txn 2));
  check_bool "later applies stay out of the dump" true (Vs.keys r = [ 1; 2 ]);
  ignore (Vs.apply r [ (2, 0) ]);
  check_int "applies to a restored store stay out of the dump" 6
    (Vs.read_latest (Vs.restore dump) 2);
  check_int "and out of the source" 6 (Vs.read_latest s 2)

let test_store_fingerprint_discriminates () =
  let a = Vs.create () and b = Vs.create () in
  ignore (Vs.apply a [ (1, 10) ]);
  ignore (Vs.apply b [ (1, 11) ]);
  check_bool "different states differ" true (Vs.fingerprint a <> Vs.fingerprint b)

(* Differential test against the multi-version store, which kept every
   version. Each sequence applies up to 120 write sets of 0-4 writes, most
   on eight hot keys (so sets repeat keys) and some anywhere in
   [-10^6, 10^6] (so the table grows), a quarter of them with no recorded
   writer. *)
type vs_case = { sets : (Txn.t option * (int * int) list) list; cut : int }

let gen_store_case seed =
  let rng = Sim.Rng.create ~seed in
  let key () =
    if Sim.Rng.int rng 5 = 0 then Sim.Rng.uniform_int rng ~lo:(-1_000_000) ~hi:1_000_000
    else Sim.Rng.int rng 8
  in
  let n = 1 + Sim.Rng.int rng 120 in
  let sets =
    List.init n (fun i ->
        let writer =
          if Sim.Rng.int rng 4 = 0 then None else Some (txn_at (Sim.Rng.int rng 3) i)
        in
        (writer, List.init (Sim.Rng.int rng 5) (fun _ -> (key (), Sim.Rng.int rng 100))))
  in
  { sets; cut = Sim.Rng.int rng (n + 1) }

let pp_write_set ppf (writer, writes) =
  Format.fprintf ppf "%s [%a]"
    (match writer with Some t -> Txn.to_string t | None -> "-")
    (Format.pp_print_list ~pp_sep:Format.pp_print_space (fun ppf (k, v) ->
         Format.fprintf ppf "%d:=%d" k v))
    writes

(* Where [s] and the reference [r] disagree, if anywhere: on every key
   written and on three more. [r]'s reads at its current index are the ones
   the atomic protocol's read-only path used to make. *)
let store_differs s r =
  let module R = Version_store_reference in
  let index = R.commit_index r in
  let probes = -1 :: 8 :: 1_000_001 :: R.keys r in
  if Vs.commit_index s <> index then Some "commit_index"
  else if Vs.keys s <> R.keys r then Some "keys"
  else if Vs.fingerprint s <> R.fingerprint r then Some "fingerprint"
  else
    List.find_map
      (fun k ->
        let at what = Some (Printf.sprintf "%s of key %d" what k) in
        if Vs.read_latest s k <> R.read_latest r k then at "read_latest"
        else if Vs.read_latest s k <> R.read_at r ~index k then at "read_at"
        else if Vs.version_of s k <> R.version_of r k then at "version_of"
        else if Vs.writer_of s k <> R.writer_of r k then at "writer_of"
        else if Vs.writer_of s k <> R.writer_at r ~index k then at "writer_at"
        else None)
      probes

(* After every write set: the store and its snapshot-restore round trip
   agree with the reference. The snapshot taken after [cut] sets must not
   change as the source moves on, and a store restored from it must end
   where the source ends when given the same remaining sets. *)
let prop_store_matches_reference =
  QCheck.Test.make ~name:"store matches the multi-version reference" ~count:500
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let module R = Version_store_reference in
      let { sets; cut } = gen_store_case seed in
      let s = Vs.create () and r = R.create () in
      let fail i what =
        QCheck.Test.fail_reportf "after set %d: %s differs; sets:@.%a" i what
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
             pp_write_set)
          (List.filteri (fun j _ -> j <= i) sets)
      in
      let check i s r =
        Option.iter (fail i) (store_differs s r);
        Option.iter
          (fun what -> fail i ("restored " ^ what))
          (store_differs (Vs.restore (Vs.snapshot s)) r)
      in
      let apply s r (writer, writes) =
        let a = Vs.apply s ?writer writes and b = R.apply r ?writer writes in
        if a <> b then QCheck.Test.fail_reportf "apply returned %d, not %d" a b
      in
      let dump = ref (Vs.snapshot s) and r_dump = ref (R.snapshot r) in
      if cut = 0 then check (-1) s r;
      List.iteri
        (fun i set ->
          apply s r set;
          check i s r;
          if i + 1 = cut then begin
            dump := Vs.snapshot s;
            r_dump := R.snapshot r
          end)
        sets;
      let resumed = Vs.restore !dump and r_resumed = R.restore !r_dump in
      Option.iter
        (fun what -> QCheck.Test.fail_reportf "the dump at %d: %s differs" cut what)
        (store_differs resumed r_resumed);
      List.iteri (fun i set -> if i >= cut then apply resumed r_resumed set) sets;
      Option.iter
        (fun what -> QCheck.Test.fail_reportf "resumed from %d: %s differs" cut what)
        (store_differs resumed r);
      Option.iter
        (fun what -> QCheck.Test.fail_reportf "the dump at %d, again: %s differs" cut what)
        (store_differs (Vs.restore !dump) (R.restore !r_dump));
      true)

(* The generator reaches each case the property is meant to cover, in at
   least a tenth of the first 500 sequences. *)
let test_store_generator_coverage () =
  let counts = Hashtbl.create 8 in
  for seed = 0 to 499 do
    let { sets; cut } = gen_store_case seed in
    let seen = Hashtbl.create 8 in
    let saw case = Hashtbl.replace seen case () in
    let keys = Hashtbl.create 64 in
    List.iter
      (fun (writer, writes) ->
        saw (if writer = None then "no writer" else "a writer");
        if writes = [] then saw "empty set";
        let ks = List.map fst writes in
        if List.length (List.sort_uniq Int.compare ks) < List.length ks then
          saw "a key twice in one set";
        if List.exists (Hashtbl.mem keys) ks then saw "an overwrite";
        List.iter (fun k -> Hashtbl.replace keys k ()) ks)
      sets;
    if Hashtbl.length keys > 32 then saw "more than 32 keys";
    if cut > 0 && cut < List.length sets then saw "a cut inside the run";
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
      "no writer"; "a writer"; "empty set"; "a key twice in one set";
      "an overwrite"; "more than 32 keys"; "a cut inside the run";
    ]

(* ------------------------------------------------------------------ *)
(* Lock manager *)

let make_lm ?(policy = Lm.No_wait) () =
  let granted = ref [] in
  let lm = Lm.create ~policy ~on_grant:(fun t k m -> granted := (t, k, m) :: !granted) () in
  (lm, granted)

let dec =
  Alcotest.testable
    (fun ppf -> function
      | Lm.Granted -> Format.pp_print_string ppf "Granted"
      | Lm.Queued -> Format.pp_print_string ppf "Queued"
      | Lm.Refused -> Format.pp_print_string ppf "Refused")
    ( = )

let test_shared_compatible () =
  let lm, _ = make_lm () in
  Alcotest.check dec "t1 S" Lm.Granted (Lm.acquire lm ~txn:(txn 1) 5 Lm.Shared);
  Alcotest.check dec "t2 S" Lm.Granted (Lm.acquire lm ~txn:(txn 2) 5 Lm.Shared);
  check_int "two holders" 2 (List.length (Lm.holders lm 5))

let test_exclusive_conflicts_nowait () =
  let lm, _ = make_lm () in
  Alcotest.check dec "t1 X" Lm.Granted (Lm.acquire lm ~txn:(txn 1) 5 Lm.Exclusive);
  Alcotest.check dec "t2 X refused" Lm.Refused (Lm.acquire lm ~txn:(txn 2) 5 Lm.Exclusive);
  let lm2, _ = make_lm () in
  ignore (Lm.acquire lm2 ~txn:(txn 1) 9 Lm.Shared);
  Alcotest.check dec "X vs S also refuses writer" Lm.Refused
    (Lm.acquire lm2 ~txn:(txn 2) 9 Lm.Exclusive)

let test_exclusive_queues_wait_policy () =
  let lm, granted = make_lm ~policy:Lm.Wait () in
  Alcotest.check dec "t1 X" Lm.Granted (Lm.acquire lm ~txn:(txn 1) 5 Lm.Exclusive);
  Alcotest.check dec "t2 X queued" Lm.Queued (Lm.acquire lm ~txn:(txn 2) 5 Lm.Exclusive);
  Lm.release_all lm (txn 1);
  check_int "grant callback fired" 1 (List.length !granted);
  check_bool "t2 now holds" true (Lm.holds lm ~txn:(txn 2) 5 Lm.Exclusive)

let test_reader_waits_for_writer () =
  let lm, granted = make_lm () in
  ignore (Lm.acquire lm ~txn:(txn 1) 5 Lm.Exclusive);
  Alcotest.check dec "reader queued (never refused)" Lm.Queued
    (Lm.acquire lm ~txn:(txn 2) 5 Lm.Shared);
  Lm.release_all lm (txn 1);
  check_int "reader granted on release" 1 (List.length !granted)

let test_reacquire_idempotent () =
  let lm, _ = make_lm () in
  ignore (Lm.acquire lm ~txn:(txn 1) 5 Lm.Exclusive);
  Alcotest.check dec "re-X" Lm.Granted (Lm.acquire lm ~txn:(txn 1) 5 Lm.Exclusive);
  Alcotest.check dec "S while holding X" Lm.Granted (Lm.acquire lm ~txn:(txn 1) 5 Lm.Shared);
  let lm2, _ = make_lm () in
  ignore (Lm.acquire lm2 ~txn:(txn 1) 5 Lm.Shared);
  Alcotest.check dec "re-S" Lm.Granted (Lm.acquire lm2 ~txn:(txn 1) 5 Lm.Shared)

let test_decision_counts () =
  let check_counts name expected lm =
    Alcotest.(check (list int)) name expected
      (List.map (Lm.decisions lm) [ Lm.Granted; Lm.Queued; Lm.Refused ])
  in
  let lm, _ = make_lm () in
  check_counts "nothing decided yet" [ 0; 0; 0 ] lm;
  ignore (Lm.acquire lm ~txn:(txn 1) 5 Lm.Exclusive);
  ignore (Lm.acquire lm ~txn:(txn 2) 5 Lm.Exclusive);
  check_counts "no-wait: one grant, one refusal" [ 1; 0; 1 ] lm;
  let lm, granted = make_lm ~policy:Lm.Wait () in
  ignore (Lm.acquire lm ~txn:(txn 1) 5 Lm.Exclusive);
  ignore (Lm.acquire lm ~txn:(txn 2) 5 Lm.Exclusive);
  check_counts "wait: the conflict queues" [ 1; 1; 0 ] lm;
  Lm.release_all lm (txn 1);
  check_int "the release promoted t2" 1 (List.length !granted);
  check_counts "a promotion counts as a grant" [ 2; 1; 0 ] lm

let test_upgrade () =
  let lm, _ = make_lm () in
  ignore (Lm.acquire lm ~txn:(txn 1) 5 Lm.Shared);
  Alcotest.check dec "sole-holder upgrade" Lm.Granted
    (Lm.acquire lm ~txn:(txn 1) 5 Lm.Exclusive);
  check_bool "holds X" true (Lm.holds lm ~txn:(txn 1) 5 Lm.Exclusive);
  let lm2, _ = make_lm () in
  ignore (Lm.acquire lm2 ~txn:(txn 1) 5 Lm.Shared);
  ignore (Lm.acquire lm2 ~txn:(txn 2) 5 Lm.Shared);
  Alcotest.check dec "contended upgrade refused" Lm.Refused
    (Lm.acquire lm2 ~txn:(txn 1) 5 Lm.Exclusive)

let test_upgrade_waits_then_grants () =
  let lm, granted = make_lm ~policy:Lm.Wait () in
  ignore (Lm.acquire lm ~txn:(txn 1) 5 Lm.Shared);
  ignore (Lm.acquire lm ~txn:(txn 2) 5 Lm.Shared);
  Alcotest.check dec "contended upgrade queues" Lm.Queued
    (Lm.acquire lm ~txn:(txn 1) 5 Lm.Exclusive);
  Lm.release_all lm (txn 2);
  check_int "upgrade granted after co-holder left" 1 (List.length !granted);
  check_bool "holds X" true (Lm.holds lm ~txn:(txn 1) 5 Lm.Exclusive)

let test_fifo_no_overtake () =
  let lm, granted = make_lm ~policy:Lm.Wait () in
  ignore (Lm.acquire lm ~txn:(txn 1) 5 Lm.Exclusive);
  ignore (Lm.acquire lm ~txn:(txn 2) 5 Lm.Exclusive);
  Alcotest.check dec "S behind queued X waits" Lm.Queued
    (Lm.acquire lm ~txn:(txn 3) 5 Lm.Shared);
  Lm.release_all lm (txn 1);
  check_int "one grant" 1 (List.length !granted);
  check_bool "t2 holds" true (Lm.holds lm ~txn:(txn 2) 5 Lm.Exclusive);
  check_bool "t3 not yet" false (Lm.holds lm ~txn:(txn 3) 5 Lm.Shared);
  Lm.release_all lm (txn 2);
  check_bool "t3 finally" true (Lm.holds lm ~txn:(txn 3) 5 Lm.Shared)

let test_release_batch_grants_readers () =
  let lm, granted = make_lm ~policy:Lm.Wait () in
  ignore (Lm.acquire lm ~txn:(txn 1) 5 Lm.Exclusive);
  ignore (Lm.acquire lm ~txn:(txn 2) 5 Lm.Shared);
  ignore (Lm.acquire lm ~txn:(txn 3) 5 Lm.Shared);
  Lm.release_all lm (txn 1);
  check_int "both readers granted together" 2 (List.length !granted)

let test_waits_for_edges () =
  let lm, _ = make_lm ~policy:Lm.Wait () in
  ignore (Lm.acquire lm ~txn:(txn 1) 5 Lm.Exclusive);
  ignore (Lm.acquire lm ~txn:(txn 2) 5 Lm.Exclusive);
  Alcotest.(check (list (pair txn_testable txn_testable)))
    "waiter->holder" [ (txn 2, txn 1) ] (Lm.waits_for_edges lm)

let test_waits_for_includes_queue_order () =
  let lm, _ = make_lm ~policy:Lm.Wait () in
  ignore (Lm.acquire lm ~txn:(txn 1) 5 Lm.Exclusive);
  ignore (Lm.acquire lm ~txn:(txn 2) 5 Lm.Exclusive);
  ignore (Lm.acquire lm ~txn:(txn 3) 5 Lm.Exclusive);
  let edges = Lm.waits_for_edges lm in
  check_bool "t3 waits for t1" true (List.mem (txn 3, txn 1) edges);
  check_bool "t3 waits for t2 (queued ahead)" true (List.mem (txn 3, txn 2) edges)

let test_release_removes_queued () =
  let lm, granted = make_lm ~policy:Lm.Wait () in
  ignore (Lm.acquire lm ~txn:(txn 1) 5 Lm.Exclusive);
  ignore (Lm.acquire lm ~txn:(txn 2) 5 Lm.Exclusive);
  Lm.release_all lm (txn 2);
  Lm.release_all lm (txn 1);
  check_int "no grant to the aborted waiter" 0 (List.length !granted);
  check_int "no holders left" 0 (List.length (Lm.holders lm 5))

let test_held_keys () =
  let lm, _ = make_lm () in
  ignore (Lm.acquire lm ~txn:(txn 1) 5 Lm.Shared);
  ignore (Lm.acquire lm ~txn:(txn 1) 6 Lm.Exclusive);
  check_int "two keys" 2 (List.length (Lm.held_keys lm (txn 1)));
  check_bool "active txn listed" true
    (List.exists (Txn.equal (txn 1)) (Lm.active_txns lm))

(* No-wait deadlock freedom for protocol-shaped transactions: each
   transaction performs all reads before any writes (the paper's model),
   issues one request at a time (a blocked transaction does not proceed),
   and aborts on refusal. Under those rules — exactly what the broadcast
   protocols implement — the waits-for graph never contains a cycle, for
   any interleaving. The same machine deadlocks readily under [Wait]
   (checked by the companion property below), so the test discriminates. *)
let simulate_two_phase ~policy txns_ops =
  (* txns_ops: per txn, (read keys, write keys). Returns max cycles seen. *)
  let lm, granted = make_lm ~policy () in
  let n = Array.length txns_ops in
  let remaining = Array.map (fun (r, w) -> ref (List.map (fun k -> (k, Lm.Shared)) r
                                                @ List.map (fun k -> (k, Lm.Exclusive)) w))
      txns_ops in
  let blocked = Array.make n false in
  let aborted = Array.make n false in
  let saw_cycle = ref false in
  let step i =
    if (not blocked.(i)) && not aborted.(i) then begin
      match !(remaining.(i)) with
      | [] -> false
      | (k, mode) :: rest -> begin
        remaining.(i) := rest;
        (match Lm.acquire lm ~txn:(txn (i + 1)) k mode with
        | Lm.Granted -> ()
        | Lm.Queued -> blocked.(i) <- true
        | Lm.Refused ->
          aborted.(i) <- true;
          Lm.release_all lm (txn (i + 1)));
        if Db.Deadlock.find_cycle (Lm.waits_for_edges lm) <> None then
          saw_cycle := true;
        true
      end
    end
    else false
  in
  (* round-robin until quiescent; drain grant notifications each sweep *)
  let progress = ref true in
  while !progress do
    progress := false;
    List.iter
      (fun (t, _, _) ->
        let i = t.Txn.local - 1 in
        if i >= 0 && i < n then blocked.(i) <- false)
      !granted;
    granted := [];
    for i = 0 to n - 1 do
      if step i then progress := true
    done
  done;
  !saw_cycle

let arb_two_phase =
  QCheck.make
    ~print:(fun txns ->
      String.concat " | "
        (List.map
           (fun (r, w) ->
             Printf.sprintf "r[%s] w[%s]"
               (String.concat "," (List.map string_of_int r))
               (String.concat "," (List.map string_of_int w)))
           txns))
    QCheck.Gen.(
      list_size (int_range 2 6)
        (pair (list_size (int_bound 3) (int_bound 4))
           (list_size (int_bound 3) (int_bound 4))))

let prop_nowait_no_deadlock =
  QCheck.Test.make
    ~name:"no-wait + reads-before-writes never builds a waits-for cycle"
    ~count:500 arb_two_phase
    (fun txns -> not (simulate_two_phase ~policy:Lm.No_wait (Array.of_list txns)))

let test_wait_policy_can_deadlock () =
  (* sanity: the same simulation under Wait does produce a cycle for the
     classic cross pattern, so the property above is not vacuous *)
  let txns = [| ([ 1 ], [ 2 ]); ([ 2 ], [ 1 ]) |] in
  check_bool "cross pattern deadlocks under Wait" true
    (simulate_two_phase ~policy:Lm.Wait txns)

(* ------------------------------------------------------------------ *)
(* Deadlock detection *)

let test_cycle_detected () =
  let edges = [ (txn 1, txn 2); (txn 2, txn 3); (txn 3, txn 1); (txn 4, txn 1) ] in
  match Db.Deadlock.find_cycle edges with
  | None -> Alcotest.fail "cycle missed"
  | Some cycle ->
    check_int "cycle length" 3 (List.length cycle);
    check_bool "victim is youngest" true
      (Txn.equal (Db.Deadlock.choose_victim cycle) (txn 3))

let test_no_cycle () =
  let edges = [ (txn 1, txn 2); (txn 2, txn 3); (txn 1, txn 3) ] in
  check_bool "dag" true (Db.Deadlock.find_cycle edges = None)

let test_self_cycle () =
  match Db.Deadlock.find_cycle [ (txn 1, txn 1) ] with
  | Some [ t ] -> check_bool "self loop" true (Txn.equal t (txn 1))
  | _ -> Alcotest.fail "self cycle missed"

let test_victim_tiebreak_site () =
  let a = txn_at 0 5 and b = txn_at 3 5 in
  check_bool "higher site wins tie" true
    (Txn.equal (Db.Deadlock.choose_victim [ a; b ]) b)

let test_lock_deadlock_end_to_end () =
  let lm, _ = make_lm ~policy:Lm.Wait () in
  ignore (Lm.acquire lm ~txn:(txn 1) 1 Lm.Exclusive);
  ignore (Lm.acquire lm ~txn:(txn 2) 2 Lm.Exclusive);
  ignore (Lm.acquire lm ~txn:(txn 1) 2 Lm.Exclusive);
  ignore (Lm.acquire lm ~txn:(txn 2) 1 Lm.Exclusive);
  match Db.Deadlock.find_cycle (Lm.waits_for_edges lm) with
  | Some cycle -> check_int "both in cycle" 2 (List.length cycle)
  | None -> Alcotest.fail "deadlock not detected"

(* ------------------------------------------------------------------ *)
(* Strict-2PL property test: ~1k random acquire / release-all (commit or
   abort) steps per script, over a handful of hot keys, checked against the
   invariants the replica-control protocols rely on:

   - a writer holding a key excludes every other holder;
   - holders and waiters of a key are disjoint;
   - release-all leaves the transaction with no lock held or queued;
   - wakeup is strict FIFO: a release promotes a prefix of the old wait
     queue, never a transaction behind one that is still waiting;
   - shared requests are never refused (the rule behind "read-only
     transactions are never aborted");
   - under [No_wait], exclusive requests never queue, and the waits-for
     graph stays acyclic (the paper's deadlock-prevention claim);
   - under [Wait], any deadlock cycle is broken by aborting victims. *)

type lock_op =
  | Op_acquire of int * int * Lm.mode  (* slot, key, mode *)
  | Op_release of int  (* slot: commit or abort — release everything *)

let lock_slots = 12
let lock_keys = 8

let gen_lock_script =
  QCheck.Gen.(
    list_size (return 1000)
      (frequency
         [
           ( 4,
             map3
               (fun s k m -> Op_acquire (s, k, m))
               (int_bound (lock_slots - 1))
               (int_bound (lock_keys - 1))
               (map (fun b -> if b then Lm.Shared else Lm.Exclusive) bool) );
           (1, map (fun s -> Op_release s) (int_bound (lock_slots - 1)));
         ]))

let pp_lock_op ppf = function
  | Op_acquire (s, k, m) ->
    Format.fprintf ppf "acquire slot=%d key=%d %s" s k
      (match m with Lm.Shared -> "S" | Lm.Exclusive -> "X")
  | Op_release s -> Format.fprintf ppf "release slot=%d" s

let arb_lock_script =
  QCheck.make gen_lock_script
    ~print:
      (Format.asprintf "%a"
         (Format.pp_print_list ~pp_sep:Format.pp_force_newline pp_lock_op))

let lock_invariants lm =
  for k = 0 to lock_keys - 1 do
    let holders = Lm.holders lm k in
    let writers = List.filter (fun (_, m) -> m = Lm.Exclusive) holders in
    if writers <> [] && List.length holders > 1 then
      QCheck.Test.fail_reportf "key %d: writer shares the key" k;
    (* A transaction may appear on both sides of a key only as an upgrade in
       progress: it holds [Shared] and queues for [Exclusive]. *)
    let waiting = Lm.waiters lm k in
    List.iter
      (fun (h, hm) ->
        List.iter
          (fun (w, wm) ->
            if Txn.equal h w && not (hm = Lm.Shared && wm = Lm.Exclusive) then
              QCheck.Test.fail_reportf
                "key %d: %a both holds and waits (not an upgrade)" k Txn.pp h)
          waiting)
      holders
  done

let lock_script_runs ~policy ops =
  (* The no-deadlock claim for [No_wait] assumes the broadcast protocols'
     usage: read-only transactions take only shared locks and updaters only
     exclusive ones (a reader holding a write lock elsewhere could close a
     reader-blocked-on-writer cycle, but the protocols never create such a
     transaction). Enforce that discipline by slot under [No_wait]; [Wait]
     scripts keep mixed modes — their deadlocks are expected and broken. *)
  let effective_mode slot m =
    match policy with
    | Lm.Wait -> m
    | Lm.No_wait -> if slot < lock_slots / 2 then Lm.Shared else Lm.Exclusive
  in
  (* Grant events, most recent first; reset around each release to observe
     exactly what that release promoted. *)
  let granted = ref [] in
  let lm =
    Lm.create ~policy ~on_grant:(fun t k m -> granted := (t, k, m) :: !granted) ()
  in
  (* Strict 2PL: a transaction never acquires after releasing, so each
     release retires the slot's transaction and a fresh one takes over. *)
  let generation = Array.make lock_slots 0 in
  let slot_txn s =
    Txn.make ~origin:(s mod 4) ~local:((generation.(s) * lock_slots) + s)
  in
  let release slot =
    let t = slot_txn slot in
    let old_waiters = Array.init lock_keys (fun k -> Lm.waiters lm k) in
    granted := [];
    Lm.release_all lm t;
    generation.(slot) <- generation.(slot) + 1;
    if Lm.held_keys lm t <> [] then
      QCheck.Test.fail_reportf "%a still holds after release-all" Txn.pp t;
    for k = 0 to lock_keys - 1 do
      if List.exists (fun (h, _) -> Txn.equal h t) (Lm.holders lm k) then
        QCheck.Test.fail_reportf "%a still a holder of %d" Txn.pp t k;
      if List.exists (fun (w, _) -> Txn.equal w t) (Lm.waiters lm k) then
        QCheck.Test.fail_reportf "%a still queued on %d" Txn.pp t k;
      (* FIFO wakeup: what this release promoted on key k must be a prefix
         of the old queue (with the released transaction taken out) — no
         overtaking. *)
      let promoted =
        List.rev !granted
        |> List.filter_map (fun (pt, pk, _) -> if pk = k then Some pt else None)
      in
      let old_q =
        List.filter_map
          (fun (w, _) -> if Txn.equal w t then None else Some w)
          old_waiters.(k)
      in
      let rec is_prefix p q =
        match (p, q) with
        | [], _ -> true
        | ph :: pr, qh :: qr -> Txn.equal ph qh && is_prefix pr qr
        | _ :: _, [] -> false
      in
      if not (is_prefix promoted old_q) then
        QCheck.Test.fail_reportf "key %d: wakeup overtook the queue" k;
      List.iter
        (fun pt ->
          if not (List.exists (fun (h, _) -> Txn.equal h pt) (Lm.holders lm k))
          then QCheck.Test.fail_reportf "key %d: promoted but not holding" k)
        promoted
    done
  in
  List.iter
    (fun op ->
      (match op with
      | Op_acquire (s, k, m) -> begin
        let m = effective_mode s m in
        let t = slot_txn s in
        match (Lm.acquire lm ~txn:t k m, m, policy) with
        | Lm.Refused, Lm.Shared, _ ->
          QCheck.Test.fail_reportf "shared request refused on key %d" k
        | Lm.Queued, Lm.Exclusive, Lm.No_wait ->
          QCheck.Test.fail_reportf "no-wait writer queued on key %d" k
        | Lm.Refused, _, Lm.Wait ->
          QCheck.Test.fail_reportf "refused under wait policy (key %d)" k
        | Lm.Granted, _, _ ->
          if not (Lm.holds lm ~txn:t k m || Lm.holds lm ~txn:t k Lm.Exclusive)
          then QCheck.Test.fail_reportf "granted but not held (key %d)" k
        | (Lm.Queued | Lm.Refused), _, _ -> ()
      end
      | Op_release s -> release s);
      (match policy with
      | Lm.No_wait -> begin
        match Db.Deadlock.find_cycle (Lm.waits_for_edges lm) with
        | Some _ -> QCheck.Test.fail_reportf "no-wait produced a deadlock"
        | None -> ()
      end
      | Lm.Wait -> begin
        (* Break any deadlock the way the baseline protocol does: abort the
           victim; the cycle must clear within |cycle| abortions. *)
        let rec break budget =
          match Db.Deadlock.find_cycle (Lm.waits_for_edges lm) with
          | Some cycle when budget > 0 ->
            let victim = Db.Deadlock.choose_victim cycle in
            let slot =
              (* victims are always live generation txns of some slot *)
              match
                List.find_opt
                  (fun s -> Txn.equal (slot_txn s) victim)
                  (List.init lock_slots Fun.id)
              with
              | Some s -> s
              | None ->
                QCheck.Test.fail_reportf "victim %a not live" Txn.pp victim
            in
            release slot;
            break (budget - 1)
          | Some _ -> QCheck.Test.fail_reportf "deadlock would not clear"
          | None -> ()
        in
        break lock_slots
      end);
      lock_invariants lm)
    ops;
  (* Drain: after releasing every live transaction nothing may linger. *)
  List.iter (fun s -> release s) (List.init lock_slots Fun.id);
  if Lm.active_txns lm <> [] then
    QCheck.Test.fail_reportf "transactions linger after global release";
  true

let prop_strict_2pl_no_wait =
  QCheck.Test.make ~name:"strict 2PL invariants under no-wait scripts"
    ~count:25 arb_lock_script
    (lock_script_runs ~policy:Lm.No_wait)

let prop_strict_2pl_wait =
  QCheck.Test.make ~name:"strict 2PL invariants under wait scripts (deadlocks broken)"
    ~count:25 arb_lock_script
    (lock_script_runs ~policy:Lm.Wait)

(* Differential test against the parent's lock manager on polymorphic hash
   tables, kept as [Lock_manager_reference]: random Wait and No_wait
   scripts over hot keys and a wide key range (enough distinct keys to
   grow the table several times), with transaction ids spread over site
   ids 0-62. After every step both managers must agree on the decision,
   the whole [on_grant] sequence, each touched key's holders and waiters,
   every live transaction's held keys, the totals, the decision counts,
   and the sorted waits-for edges and active transactions. *)

type diff_op = Lock of lock_op | Clear

let diff_slots = 12

let gen_diff_script =
  QCheck.Gen.(
    let key = frequency [ (7, int_bound 7); (3, int_range (-20) 199) ] in
    let mode = map (fun b -> if b then Lm.Shared else Lm.Exclusive) bool in
    list_size (int_range 1 400)
      (frequency
         [
           ( 120,
             map3
               (fun s k m -> Lock (Op_acquire (s, k, m)))
               (int_bound (diff_slots - 1)) key mode );
           (40, map (fun s -> Lock (Op_release s)) (int_bound (diff_slots - 1)));
           (1, return Clear);
         ]))

let arb_diff_script =
  QCheck.make gen_diff_script
    ~print:
      (Format.asprintf "%a"
         (Format.pp_print_list ~pp_sep:Format.pp_force_newline (fun ppf -> function
            | Lock op -> pp_lock_op ppf op
            | Clear -> Format.pp_print_string ppf "clear")))

let lock_managers_agree ~policy ops =
  let module R = Lock_manager_reference in
  let got = ref [] and want = ref [] in
  let lm = Lm.create ~policy ~on_grant:(fun t k m -> got := (t, k, m) :: !got) () in
  let rf = R.create ~policy ~on_grant:(fun t k m -> want := (t, k, m) :: !want) () in
  let generation = Array.make diff_slots 0 in
  let slot_txn s =
    Txn.make ~origin:(s * 11 mod 63) ~local:((generation.(s) * diff_slots) + s)
  in
  let touched = Hashtbl.create 64 in
  let sorted l = List.sort compare l in
  let check step =
    let differs what =
      QCheck.Test.fail_reportf "after step %d: %s differs" step what
    in
    if !got <> !want then differs "the on_grant sequence";
    Hashtbl.iter
      (fun k () ->
        if Lm.holders lm k <> R.holders rf k then
          differs (Printf.sprintf "the holders of key %d" k);
        if Lm.waiters lm k <> R.waiters rf k then
          differs (Printf.sprintf "the waiters of key %d" k))
      touched;
    for s = 0 to diff_slots - 1 do
      if Lm.held_keys lm (slot_txn s) <> R.held_keys rf (slot_txn s) then
        differs (Printf.sprintf "held_keys of slot %d" s)
    done;
    if Lm.held_total lm <> R.held_total rf then differs "held_total";
    if Lm.waiting_total lm <> R.waiting_total rf then differs "waiting_total";
    List.iter
      (fun d -> if Lm.decisions lm d <> R.decisions rf d then differs "a decision count")
      [ Lm.Granted; Lm.Queued; Lm.Refused ];
    if sorted (Lm.waits_for_edges lm) <> sorted (R.waits_for_edges rf) then
      differs "waits_for_edges";
    if sorted (Lm.active_txns lm) <> sorted (R.active_txns rf) then
      differs "active_txns"
  in
  List.iteri
    (fun step op ->
      (match op with
      | Lock (Op_acquire (s, k, m)) ->
        Hashtbl.replace touched k ();
        let t = slot_txn s in
        if Lm.acquire lm ~txn:t k m <> R.acquire rf ~txn:t k m then
          QCheck.Test.fail_reportf "step %d: the decisions differ" step
      | Lock (Op_release s) ->
        Lm.release_all lm (slot_txn s);
        R.release_all rf (slot_txn s);
        generation.(s) <- generation.(s) + 1
      | Clear ->
        Lm.clear lm;
        R.clear rf);
      check step)
    ops;
  true

let prop_lock_manager_matches_reference policy label =
  QCheck.Test.make ~count:200
    ~name:(Printf.sprintf "lock manager matches the hash-table reference (%s)" label)
    arb_diff_script
    (lock_managers_agree ~policy)

(* [Int_table] against [Hashtbl] under random replace/remove/clear over a
   small key range, so tables run near their 3/4 load limit and removals
   shift long probe runs: after every step, every key in the range finds
   the same value (or the vacant one), a fold lists the same bindings, and
   [length] counts them. *)

type table_op = Put of int * int | Del of int | Wipe

let prop_int_table_matches_hashtbl =
  QCheck.Test.make ~name:"int table matches Hashtbl" ~count:300
    QCheck.(
      make
        ~print:(fun ops -> string_of_int (List.length ops) ^ " ops")
        Gen.(
          list_size (int_range 1 600)
            (frequency
               [
                 (6, map2 (fun k v -> Put (k, v)) (int_range (-40) 160) nat);
                 (4, map (fun k -> Del k) (int_range (-40) 160));
                 (1, return Wipe);
               ])))
    (fun ops ->
      let vacant = -1 in
      let t = Sim.Int_table.create ~vacant and h = Hashtbl.create 16 in
      List.iteri
        (fun step op ->
          (match op with
          | Put (k, v) ->
            Sim.Int_table.replace t k v;
            Hashtbl.replace h k v
          | Del k ->
            Sim.Int_table.remove t k;
            Hashtbl.remove h k
          | Wipe ->
            Sim.Int_table.clear t;
            Hashtbl.reset h);
          for k = -40 to 160 do
            let want = Option.value (Hashtbl.find_opt h k) ~default:vacant in
            if Sim.Int_table.find t k <> want then
              QCheck.Test.fail_reportf "after step %d: key %d finds %d, not %d"
                step k (Sim.Int_table.find t k) want
          done;
          let bindings =
            List.sort compare (Sim.Int_table.fold (fun k v acc -> (k, v) :: acc) t [])
          in
          if bindings <> List.sort compare (List.of_seq (Hashtbl.to_seq h)) then
            QCheck.Test.fail_reportf "after step %d: the bindings differ" step;
          if Sim.Int_table.length t <> Hashtbl.length h then
            QCheck.Test.fail_reportf "after step %d: length %d, not %d" step
              (Sim.Int_table.length t) (Hashtbl.length h))
        ops;
      true)

(* Txn ids *)

let test_txn_id_order () =
  check_bool "older first" true (Txn.compare (txn 1) (txn 2) < 0);
  check_bool "site tiebreak" true (Txn.compare (txn_at 0 1) (txn_at 1 1) < 0);
  Alcotest.(check string) "pp" "T2.7" (Txn.to_string (txn_at 2 7))

(* Hashing the record itself must keep every hash, and so every table's
   iteration order, of the (origin, local) tuple. The records are built
   directly: [make] rejects a negative [local]. *)
let test_txn_id_hash () =
  for origin = 0 to 8 do
    for local = -2 to 2000 do
      let t = { Txn.origin; local } in
      if Txn.hash t <> Hashtbl.hash (origin, local) then
        Alcotest.failf "hash of %s differs from its tuple's" (Txn.to_string t)
    done
  done

let test_txn_id_make_ranges () =
  let rejects what f =
    match f () with
    | _ -> Alcotest.failf "make accepted %s" what
    | exception Invalid_argument _ -> ()
  in
  rejects "origin -1" (fun () -> Txn.make ~origin:(-1) ~local:1);
  rejects "origin max_sites" (fun () ->
      Txn.make ~origin:Net.Site_id.max_sites ~local:1);
  rejects "local -1" (fun () -> Txn.make ~origin:0 ~local:(-1));
  let last = Txn.make ~origin:(Net.Site_id.max_sites - 1) ~local:0 in
  check_int "origin max_sites - 1" (Net.Site_id.max_sites - 1) last.Txn.origin

(* The packed key names one id and sorts as [compare]: every pair of a
   random list, over origins in [0, max_sites) and locals from a few
   (so that equal ids are common) up to far beyond any run's count. *)
let prop_txn_id_key_packs =
  QCheck.Test.make ~name:"txn id key is injective and ordered like compare"
    ~count:500
    QCheck.(
      list_of_size (Gen.int_range 2 40)
        (pair (int_bound (Net.Site_id.max_sites - 1))
           (oneof [ int_bound 3; int_bound 100; int_bound (1 lsl 40) ])))
    (fun pairs ->
      let ids = List.map (fun (origin, local) -> Txn.make ~origin ~local) pairs in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              (Txn.key a = Txn.key b) = Txn.equal a b
              && Int.compare (Txn.key a) (Txn.key b) = Txn.compare a b)
            ids)
        ids)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "db"
    [
      ( "version_store",
        [
          tc "basics" `Quick test_store_basics;
          tc "versions and writers" `Quick test_store_versions_writers;
          tc "empty write set" `Quick test_store_empty_writeset_advances;
          tc "snapshot/restore" `Quick test_store_snapshot_restore;
          tc "fingerprint" `Quick test_store_fingerprint_discriminates;
          QCheck_alcotest.to_alcotest prop_store_matches_reference;
          tc "generator covers the reference cases" `Quick
            test_store_generator_coverage;
        ] );
      ( "int_table", [ QCheck_alcotest.to_alcotest prop_int_table_matches_hashtbl ] );
      ( "lock_manager",
        [
          tc "shared compatible" `Quick test_shared_compatible;
          tc "no-wait refuses writers" `Quick test_exclusive_conflicts_nowait;
          tc "wait policy queues" `Quick test_exclusive_queues_wait_policy;
          tc "readers wait" `Quick test_reader_waits_for_writer;
          tc "idempotent reacquire" `Quick test_reacquire_idempotent;
          tc "upgrade" `Quick test_upgrade;
          tc "contended upgrade waits" `Quick test_upgrade_waits_then_grants;
          tc "fifo, no overtaking" `Quick test_fifo_no_overtake;
          tc "batch reader grants" `Quick test_release_batch_grants_readers;
          tc "waits-for edges" `Quick test_waits_for_edges;
          tc "waits-for queue order" `Quick test_waits_for_includes_queue_order;
          tc "release removes queued" `Quick test_release_removes_queued;
          tc "held keys" `Quick test_held_keys;
          tc "decision counts" `Quick test_decision_counts;
          QCheck_alcotest.to_alcotest prop_nowait_no_deadlock;
          QCheck_alcotest.to_alcotest prop_strict_2pl_no_wait;
          QCheck_alcotest.to_alcotest prop_strict_2pl_wait;
          tc "wait policy can deadlock (sanity)" `Quick test_wait_policy_can_deadlock;
          QCheck_alcotest.to_alcotest
            (prop_lock_manager_matches_reference Lm.Wait "wait");
          QCheck_alcotest.to_alcotest
            (prop_lock_manager_matches_reference Lm.No_wait "no-wait");
        ] );
      ( "deadlock",
        [
          tc "cycle found" `Quick test_cycle_detected;
          tc "dag clean" `Quick test_no_cycle;
          tc "self cycle" `Quick test_self_cycle;
          tc "victim tiebreak" `Quick test_victim_tiebreak_site;
          tc "end-to-end cross conflict" `Quick test_lock_deadlock_end_to_end;
        ] );
      ( "txn_id",
        [
          tc "ordering" `Quick test_txn_id_order;
          tc "hash equals the tuple's" `Quick test_txn_id_hash;
          tc "make rejects ids the key cannot pack" `Quick test_txn_id_make_ranges;
          QCheck_alcotest.to_alcotest prop_txn_id_key_packs;
        ] );
    ]
