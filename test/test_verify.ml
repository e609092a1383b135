(* The verifier itself: serialization-graph construction, convergence,
   invariants — exercised on handcrafted histories with known verdicts. *)

module H = Verify.History
module S = Verify.Serialization
module Txn = Db.Txn_id

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let txn site i = Txn.make ~origin:site ~local:i

(* Small DSL: build a history from a script. *)
let build script =
  let h = H.create () in
  List.iter
    (fun step -> step h)
    script;
  h

let begin_ t ~at h = H.begin_txn h t ~origin:at
let read t k ~from h = H.record_read h t k ~from
let writes t ws h = H.record_writes h t ws
let commit t h = H.record_outcome h t H.Committed
let abort t h = H.record_outcome h t (H.Aborted H.Write_conflict)
let apply site t h = H.record_apply h ~site t

(* ------------------------------------------------------------------ *)
(* History bookkeeping *)

let test_history_counts () =
  let a = txn 0 1 and b = txn 1 1 and c = txn 2 1 in
  let h =
    build
      [
        begin_ a ~at:0; begin_ b ~at:1; begin_ c ~at:2;
        writes a [ (1, 10) ]; commit a; abort b;
      ]
  in
  let committed, aborted, undecided = H.count_outcomes h in
  check_int "committed" 1 committed;
  check_int "aborted" 1 aborted;
  check_int "undecided" 1 undecided;
  check_bool "find" true (H.find h a <> None);
  check_bool "read-only flag" true
    (match H.find h b with Some r -> r.H.read_only | None -> false)

let test_history_outcome_first_wins () =
  let a = txn 0 1 in
  let h = build [ begin_ a ~at:0; commit a; abort a ] in
  check_bool "stays committed" true
    (match H.find h a with Some r -> r.H.outcome = Some H.Committed | None -> false)

let test_history_apply_order () =
  let a = txn 0 1 and b = txn 0 2 in
  let h = build [ begin_ a ~at:0; begin_ b ~at:0; apply 1 a; apply 1 b; apply 2 b ] in
  Alcotest.(check (list int)) "site 1 order" [ 1; 2 ]
    (List.map (fun t -> t.Txn.local) (H.apply_order h ~site:1));
  Alcotest.(check (list int)) "sites" [ 1; 2 ] (H.sites_applied h);
  H.reset_applies h ~site:1;
  Alcotest.(check (list int)) "reset" [] (List.map (fun t -> t.Txn.local) (H.apply_order h ~site:1))

(* A site's apply log, taken as a value, is a cut: neither the site's later
   applies nor its later adoptions change it. Adopting it replaces the
   adopter's log, and adopting an empty one forgets the site. *)
let test_history_apply_log_cut () =
  let a = txn 0 1 and b = txn 0 2 and c = txn 0 3 in
  let h = build [ begin_ a ~at:0; begin_ b ~at:0; begin_ c ~at:0; apply 1 a; apply 1 b ] in
  let locals site = List.map (fun t -> t.Txn.local) (H.apply_order h ~site) in
  let cut = H.apply_log h ~site:1 in
  apply 1 c h;
  H.adopt_apply_log h ~site:2 cut;
  Alcotest.(check (list int)) "adopted the cut" [ 1; 2 ] (locals 2);
  apply 2 c h;
  Alcotest.(check (list int)) "the adopter goes on" [ 1; 2; 3 ] (locals 2);
  H.adopt_apply_log h ~site:1 (H.apply_log h ~site:3);
  Alcotest.(check (list int)) "sites" [ 2 ] (H.sites_applied h);
  H.adopt_apply_log h ~site:3 cut;
  Alcotest.(check (list int)) "the cut is unchanged" [ 1; 2 ] (locals 3)

(* ------------------------------------------------------------------ *)
(* Serialization checking *)

let test_serializable_chain () =
  (* T1 writes x; T2 reads x from T1 and writes y; both applied in the same
     order everywhere: a clean chain. *)
  let t1 = txn 0 1 and t2 = txn 1 1 in
  let h =
    build
      [
        begin_ t1 ~at:0; begin_ t2 ~at:1;
        writes t1 [ (1, 10) ]; commit t1;
        apply 0 t1; apply 1 t1;
        read t2 1 ~from:(Some t1); writes t2 [ (2, 20) ]; commit t2;
        apply 0 t2; apply 1 t2;
      ]
  in
  Alcotest.(check (list string)) "no violations" []
    (List.map (Format.asprintf "%a" S.pp_violation) (S.check h))

let test_cycle_detected () =
  (* Classic write skew made cyclic: T1 reads x(initial) writes y; T2 reads
     y(initial) writes x. rw edges both ways -> cycle. *)
  let t1 = txn 0 1 and t2 = txn 1 1 in
  let h =
    build
      [
        begin_ t1 ~at:0; begin_ t2 ~at:1;
        read t1 1 ~from:None; writes t1 [ (2, 10) ]; commit t1;
        read t2 2 ~from:None; writes t2 [ (1, 20) ]; commit t2;
        apply 0 t1; apply 0 t2; apply 1 t1; apply 1 t2;
      ]
  in
  check_bool "cycle found" true
    (List.exists (function S.Cycle _ -> true | _ -> false) (S.check h))

let test_lost_update_cycle () =
  (* Both read the initial version of x, both overwrite it: lost update. *)
  let t1 = txn 0 1 and t2 = txn 1 1 in
  let h =
    build
      [
        begin_ t1 ~at:0; begin_ t2 ~at:1;
        read t1 1 ~from:None; writes t1 [ (1, 10) ]; commit t1;
        read t2 1 ~from:None; writes t2 [ (1, 20) ]; commit t2;
        apply 0 t1; apply 0 t2; apply 1 t1; apply 1 t2;
      ]
  in
  check_bool "lost update caught" false (S.is_one_copy_serializable h)

let test_divergent_install_order () =
  let t1 = txn 0 1 and t2 = txn 1 1 in
  let h =
    build
      [
        begin_ t1 ~at:0; begin_ t2 ~at:1;
        writes t1 [ (1, 10) ]; commit t1;
        writes t2 [ (1, 20) ]; commit t2;
        apply 0 t1; apply 0 t2;
        apply 1 t2; apply 1 t1;  (* reversed at site 1 *)
      ]
  in
  check_bool "divergence caught" true
    (List.exists (function S.Divergent_install_order _ -> true | _ -> false) (S.check h))

let test_lagging_prefix_ok () =
  (* Site 1 simply lags: a prefix, not a divergence. *)
  let t1 = txn 0 1 and t2 = txn 1 1 in
  let h =
    build
      [
        begin_ t1 ~at:0; begin_ t2 ~at:1;
        writes t1 [ (1, 10) ]; commit t1;
        writes t2 [ (1, 20) ]; commit t2;
        apply 0 t1; apply 0 t2;
        apply 1 t1;
      ]
  in
  check_bool "prefix tolerated" true
    (not (List.exists (function S.Divergent_install_order _ -> true | _ -> false)
            (S.check h)))

let test_read_from_uncommitted () =
  let t1 = txn 0 1 and t2 = txn 1 1 in
  let h =
    build
      [
        begin_ t1 ~at:0; begin_ t2 ~at:1;
        writes t1 [ (1, 10) ]; abort t1;
        read t2 1 ~from:(Some t1); writes t2 [ (2, 5) ]; commit t2;
        apply 0 t2;
      ]
  in
  check_bool "dirty read caught" true
    (List.exists (function S.Read_from_uncommitted _ -> true | _ -> false) (S.check h))

let test_applied_but_undecided_counts_as_committed () =
  (* The origin died before reporting, but a site installed the writes:
     the group's decision stands, no violation. *)
  let t1 = txn 0 1 and t2 = txn 1 1 in
  let h =
    build
      [
        begin_ t1 ~at:0; begin_ t2 ~at:1;
        writes t1 [ (1, 10) ];  (* no outcome recorded *)
        apply 1 t1;
        read t2 1 ~from:(Some t1); writes t2 [ (2, 5) ]; commit t2; apply 1 t2;
      ]
  in
  Alcotest.(check (list string)) "clean" []
    (List.map (Format.asprintf "%a" S.pp_violation) (S.check h))

let test_applied_but_aborted_flagged () =
  let t1 = txn 0 1 in
  let h = build [ begin_ t1 ~at:0; writes t1 [ (1, 10) ]; abort t1; apply 1 t1 ] in
  check_bool "flagged" true
    (List.exists (function S.Applied_but_aborted _ -> true | _ -> false) (S.check h))

let test_read_only_positioning () =
  (* An RO transaction that read x from T1 but y from the initial state,
     while T2 (which wrote y after reading x from T1) committed, is still
     serializable: RO orders before T2. *)
  let t1 = txn 0 1 and t2 = txn 1 1 and ro = txn 2 1 in
  let h =
    build
      [
        begin_ t1 ~at:0; begin_ t2 ~at:1; begin_ ro ~at:2;
        writes t1 [ (1, 10) ]; commit t1; apply 0 t1; apply 1 t1; apply 2 t1;
        read t2 1 ~from:(Some t1); writes t2 [ (2, 20) ]; commit t2;
        apply 0 t2; apply 1 t2; apply 2 t2;
        read ro 1 ~from:(Some t1); read ro 2 ~from:None; writes ro []; commit ro;
      ]
  in
  check_bool "serializable" true (S.is_one_copy_serializable h)

let test_ro_inconsistent_cut_caught () =
  (* RO reads y from T2 but x from the initial state although T1 -> T2:
     the read cut crosses a dependency — must be cyclic. *)
  let t1 = txn 0 1 and t2 = txn 1 1 and ro = txn 2 1 in
  let h =
    build
      [
        begin_ t1 ~at:0; begin_ t2 ~at:1; begin_ ro ~at:2;
        writes t1 [ (1, 10) ]; commit t1; apply 0 t1; apply 1 t1; apply 2 t1;
        read t2 1 ~from:(Some t1); writes t2 [ (2, 20) ]; commit t2;
        apply 0 t2; apply 1 t2; apply 2 t2;
        read ro 2 ~from:(Some t2); read ro 1 ~from:None; writes ro []; commit ro;
      ]
  in
  check_bool "inconsistent snapshot caught" false (S.is_one_copy_serializable h)


(* ------------------------------------------------------------------ *)
(* Checker soundness, property-tested: a history generated by a genuine
   serial execution over identical replicas is always accepted; mutating
   one site's install order is always rejected. *)

let gen_serial_history seed =
  (* execute random transactions serially over k replica stores and record
     faithfully — by construction one-copy serializable *)
  let rng = Sim.Rng.create ~seed in
  let k = 3 in
  let h = H.create () in
  let stores = Array.init k (fun _ -> Db.Version_store.create ()) in
  let writers = Hashtbl.create 16 in  (* key -> last committed writer *)
  let n_txns = 2 + Sim.Rng.int rng 12 in
  for i = 1 to n_txns do
    let t = txn (Sim.Rng.int rng k) i in
    H.begin_txn h t ~origin:0;
    (* reads against current committed state *)
    let n_reads = Sim.Rng.int rng 3 in
    for _ = 1 to n_reads do
      let key = Sim.Rng.int rng 5 in
      H.record_read h t key ~from:(Hashtbl.find_opt writers key)
    done;
    (* some transactions abort; they change nothing *)
    if Sim.Rng.int rng 4 = 0 then begin
      H.record_writes h t [];
      H.record_outcome h t (H.Aborted H.Write_conflict)
    end
    else begin
      let n_writes = 1 + Sim.Rng.int rng 2 in
      let writes =
        List.init n_writes (fun j -> ((Sim.Rng.int rng 5 + (5 * j)) mod 7, i))
      in
      let writes = List.sort_uniq compare writes in
      H.record_writes h t writes;
      H.record_outcome h t H.Committed;
      List.iter (fun (key, _) -> Hashtbl.replace writers key t) writes;
      Array.iteri
        (fun site store ->
          ignore (Db.Version_store.apply store ~writer:t writes);
          H.record_apply h ~site t)
        stores
    end
  done;
  h

let prop_serial_accepted =
  QCheck.Test.make ~name:"serial executions are always accepted" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed -> S.check (gen_serial_history seed) = [])

let prop_swapped_install_rejected =
  QCheck.Test.make
    ~name:"swapping one site's install order of same-key writers is rejected"
    ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let h = gen_serial_history seed in
      (* rebuild a mutated history: reverse site 2's apply order; only a
         meaningful mutation when at least two applied txns share a key *)
      let applies = H.apply_order h ~site:2 in
      if List.length applies < 2 then true
      else begin
        let shared_key =
          let writes_of t =
            match H.find h t with Some r -> List.map fst r.H.writes | None -> []
          in
          List.exists
            (fun t1 ->
              List.exists
                (fun t2 ->
                  (not (Db.Txn_id.equal t1 t2))
                  && List.exists (fun k -> List.mem k (writes_of t2)) (writes_of t1))
                applies)
            applies
        in
        if not shared_key then true
        else begin
          H.reset_applies h ~site:2;
          List.iter (fun t -> H.record_apply h ~site:2 t) (List.rev applies);
          S.check h <> []
        end
      end)

(* ------------------------------------------------------------------ *)
(* Differential test: the one-pass checker against the quadratic reference
   it replaced, on random histories carrying every fault the checker
   reports. *)

(* Transactions over a few keys on 1-4 sites. Faults mixed in: installs of
   transactions aborted at their origin, reads from aborted, undecided or
   non-writing transactions, stale reads (write skew, lost update), keys
   repeated inside one write set; per site, a lagging prefix, a swapped
   pair (divergent order), a double apply and apply-log resets. *)
let gen_faulty_history seed =
  let rng = Sim.Rng.create ~seed in
  let chance n = Sim.Rng.int rng n = 0 in
  let n_sites = 1 + Sim.Rng.int rng 4 and n_keys = 1 + Sim.Rng.int rng 6 in
  let h = H.create () in
  let latest = Hashtbl.create 8 in  (* key -> last installed writer *)
  let begun = ref [] and installs = ref [] in
  for i = 1 to 1 + Sim.Rng.int rng 10 do
    let t = txn (Sim.Rng.int rng n_sites) i in
    H.begin_txn h t ~origin:t.Txn.origin;
    for _ = 1 to Sim.Rng.int rng 3 do
      let key = Sim.Rng.int rng n_keys in
      let from =
        if chance 4 && !begun <> [] then
          Some (List.nth !begun (Sim.Rng.int rng (List.length !begun)))
        else if chance 4 then None
        else Hashtbl.find_opt latest key
      in
      H.record_read h t key ~from
    done;
    let writes = List.init (Sim.Rng.int rng 4) (fun j -> (Sim.Rng.int rng n_keys, j)) in
    H.record_writes h t writes;
    let installed =
      match Sim.Rng.int rng 6 with
      | 0 ->
        H.record_outcome h t (H.Aborted H.Write_conflict);
        chance 3
      | 1 -> chance 2
      | _ ->
        H.record_outcome h t H.Committed;
        true
    in
    if installed then begin
      installs := t :: !installs;
      List.iter (fun (k, _) -> Hashtbl.replace latest k t) writes
    end;
    begun := t :: !begun
  done;
  let order = Array.of_list (List.rev !installs) in
  for site = 0 to n_sites - 1 do
    let log = Array.copy order and n = Array.length order in
    if n >= 2 && chance 4 then begin
      let i = Sim.Rng.int rng (n - 1) in
      let x = log.(i) in
      log.(i) <- log.(i + 1);
      log.(i + 1) <- x
    end;
    let kept = if chance 3 then Sim.Rng.int rng (n + 1) else n in
    let log = Array.to_list (Array.sub log 0 kept) in
    (* applied twice: one entry again, right after itself or later *)
    let log =
      if kept > 0 && chance 5 then begin
        let i = Sim.Rng.int rng kept in
        let j = i + 1 + Sim.Rng.int rng (kept - i) in
        List.filteri (fun k _ -> k < j) log
        @ (List.nth log i :: List.filteri (fun k _ -> k >= j) log)
      end
      else log
    in
    if chance 6 then begin
      List.iter (H.record_apply h ~site) (List.rev log);
      H.reset_applies h ~site
    end;
    List.iter (H.record_apply h ~site) log;
    if chance 10 then H.reset_applies h ~site
  done;
  h

let show_violations vs = List.map (Format.asprintf "%a" S.pp_violation) vs

let prop_matches_reference =
  QCheck.Test.make ~name:"one-pass checker matches the quadratic reference"
    ~count:2000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let h =
        if seed mod 5 = 0 then gen_serial_history seed else gen_faulty_history seed
      in
      let got = show_violations (S.check h)
      and want = show_violations (Serialization_reference.check h) in
      got = want
      || QCheck.Test.fail_reportf "checker:   %s@.reference: %s"
           (String.concat "; " got) (String.concat "; " want))

(* The differential property is only as strong as its generator: it must
   reach every violation kind, and clean histories too. *)
let test_faulty_generator_coverage () =
  let seen = Hashtbl.create 8 in
  for seed = 0 to 999 do
    match S.check (gen_faulty_history seed) with
    | [] -> Hashtbl.replace seen "clean" ()
    | vs ->
      List.iter
        (fun v ->
          Hashtbl.replace seen
            (match v with
            | S.Read_from_uncommitted _ -> "read-from-uncommitted"
            | S.Applied_but_aborted _ -> "applied-but-aborted"
            | S.Divergent_install_order _ -> "divergent"
            | S.Cycle _ -> "cycle")
            ())
        vs
  done;
  List.iter
    (fun kind -> check_bool kind true (Hashtbl.mem seen kind))
    [ "clean"; "read-from-uncommitted"; "applied-but-aborted"; "divergent"; "cycle" ]

(* ------------------------------------------------------------------ *)
(* Convergence *)

let test_convergence () =
  let a = Db.Version_store.create () and b = Db.Version_store.create () in
  ignore (Db.Version_store.apply a [ (1, 10) ]);
  ignore (Db.Version_store.apply b [ (1, 10) ]);
  check_bool "equal states" true (Verify.Convergence.converged [ (0, a); (1, b) ]);
  ignore (Db.Version_store.apply b [ (2, 7) ]);
  let divs = Verify.Convergence.check [ (0, a); (1, b) ] in
  check_int "one divergence" 1 (List.length divs);
  check_bool "key reported" true
    (match divs with [ d ] -> d.Verify.Convergence.key = 2 | _ -> false)

let test_convergence_trivial () =
  check_bool "empty" true (Verify.Convergence.converged []);
  let a = Db.Version_store.create () in
  check_bool "singleton" true (Verify.Convergence.converged [ (0, a) ])

(* ------------------------------------------------------------------ *)
(* Invariants *)

let test_invariants () =
  let a = txn 0 1 and b = txn 1 1 in
  let h =
    build
      [
        begin_ a ~at:0; begin_ b ~at:1;
        writes a [ (1, 1) ]; commit a;
        writes b []; commit b;
      ]
  in
  check_bool "ro never aborted" true (Verify.Invariants.read_only_never_aborted h);
  check_bool "no deadlock aborts" true (Verify.Invariants.no_deadlock_aborts h);
  check_bool "all decided" true (Verify.Invariants.all_decided h);
  Alcotest.(check (float 1e-9)) "fraction" 1.0 (Verify.Invariants.committed_fraction h)

let test_invariants_violations () =
  let a = txn 0 1 and b = txn 1 1 in
  let h = H.create () in
  H.begin_txn h a ~origin:0;
  H.record_writes h a [];
  H.record_outcome h a (H.Aborted H.Write_conflict);
  H.begin_txn h b ~origin:1;
  H.record_outcome h b (H.Aborted H.Deadlock_victim);
  check_bool "ro abort caught" false (Verify.Invariants.read_only_never_aborted h);
  check_bool "deadlock abort caught" false (Verify.Invariants.no_deadlock_aborts h);
  Alcotest.(check (float 1e-9)) "fraction 0" 0.0 (Verify.Invariants.committed_fraction h)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "verify"
    [
      ( "history",
        [
          tc "counts" `Quick test_history_counts;
          tc "first outcome wins" `Quick test_history_outcome_first_wins;
          tc "apply order" `Quick test_history_apply_order;
          tc "apply log is a cut" `Quick test_history_apply_log_cut;
        ] );
      ( "serialization",
        [
          tc "clean chain" `Quick test_serializable_chain;
          tc "write-skew cycle" `Quick test_cycle_detected;
          tc "lost update" `Quick test_lost_update_cycle;
          tc "divergent install order" `Quick test_divergent_install_order;
          tc "lagging prefix ok" `Quick test_lagging_prefix_ok;
          tc "read from uncommitted" `Quick test_read_from_uncommitted;
          tc "applied-but-undecided is committed" `Quick
            test_applied_but_undecided_counts_as_committed;
          tc "applied-but-aborted flagged" `Quick test_applied_but_aborted_flagged;
          tc "read-only positioning" `Quick test_read_only_positioning;
          tc "inconsistent RO cut" `Quick test_ro_inconsistent_cut_caught;
          QCheck_alcotest.to_alcotest prop_serial_accepted;
          QCheck_alcotest.to_alcotest prop_swapped_install_rejected;
          tc "faulty generator reaches every violation" `Quick
            test_faulty_generator_coverage;
          QCheck_alcotest.to_alcotest prop_matches_reference;
        ] );
      ( "convergence",
        [
          tc "divergence detection" `Quick test_convergence;
          tc "trivial cases" `Quick test_convergence_trivial;
        ] );
      ( "invariants",
        [
          tc "clean history" `Quick test_invariants;
          tc "violations" `Quick test_invariants_violations;
        ] );
    ]
