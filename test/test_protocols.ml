(* End-to-end tests of the four replica-control protocols: the paper's
   claims, stated as executable checks. *)

module H = Verify.History
module R = Exper.Runner

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let all_protocols =
  [ Repdb.Protocol.Baseline; Repdb.Protocol.Reliable; Repdb.Protocol.Causal;
    Repdb.Protocol.Atomic ]

let broadcast_protocols = Repdb.Protocol.broadcast_based

let name = Repdb.Protocol.name

(* Drive a protocol directly with an explicit list of submissions. *)
let drive ?(n = 3) ?(seed = 21) ?config proto submissions =
  let module P = (val Repdb.Protocol.get proto) in
  let engine = Sim.Engine.create ~seed () in
  let history = H.create () in
  let config = Option.value config ~default:(Repdb.Config.default ~n_sites:n) in
  let sys = P.create engine config ~history in
  let outcomes = Hashtbl.create 8 in
  List.iter
    (fun (label, origin, spec) ->
      ignore
        (P.submit sys ~origin spec ~on_done:(fun o -> Hashtbl.replace outcomes label o)))
    submissions;
  Sim.Engine.run_until engine (Sim.Time.of_sec 5.0);
  let stores = List.map (fun s -> (s, P.store sys s)) (Net.Site_id.all ~n) in
  (outcomes, history, stores)

let outcome label outcomes =
  match Hashtbl.find_opt outcomes label with
  | Some o -> o
  | None -> Alcotest.failf "transaction %s undecided" label

(* Replaying a site's apply order — each transaction's recorded write set,
   in that order — into a fresh store must reproduce the site's store: the
   commit index and every key's value, version and writer. *)
let check_apply_order_replay history stores =
  let module Vs = Db.Version_store in
  List.iter
    (fun (site, store) ->
      let replayed = Vs.create () in
      List.iter
        (fun txn ->
          match H.find history txn with
          | Some r -> ignore (Vs.apply replayed ~writer:txn r.H.writes)
          | None ->
            Alcotest.failf "site %d applied the unknown %s" site
              (Db.Txn_id.to_string txn))
        (H.apply_order history ~site);
      let label what = Printf.sprintf "site %d replay: %s" site what in
      check_int (label "commit index") (Vs.commit_index store)
        (Vs.commit_index replayed);
      Alcotest.(check (list int)) (label "keys") (Vs.keys store) (Vs.keys replayed);
      List.iter
        (fun k ->
          let of_key what = label (Printf.sprintf "%s of key %d" what k) in
          check_int (of_key "value") (Vs.read_latest store k) (Vs.read_latest replayed k);
          check_int (of_key "version") (Vs.version_of store k) (Vs.version_of replayed k);
          check_bool (of_key "writer") true
            (Option.equal Db.Txn_id.equal (Vs.writer_of store k)
               (Vs.writer_of replayed k)))
        (Vs.keys store))
    stores

(* ------------------------------------------------------------------ *)
(* Basic behaviour, for every protocol *)

let test_single_commit proto () =
  let outcomes, _, stores =
    drive proto [ ("t", 0, Repdb.Op.write_only [ (7, 42) ]) ]
  in
  check_bool "committed" true (outcome "t" outcomes = H.Committed);
  List.iter
    (fun (site, store) ->
      Alcotest.(check int)
        (Printf.sprintf "replicated at site %d" site)
        42
        (Db.Version_store.read_latest store 7))
    stores

let test_read_sees_prior_commit proto () =
  (* sequential: write committed before the read is submitted *)
  let module P = (val Repdb.Protocol.get proto) in
  let engine = Sim.Engine.create ~seed:5 () in
  let history = H.create () in
  let sys = P.create engine (Repdb.Config.default ~n_sites:3) ~history in
  let seen = ref None in
  ignore
    (P.submit sys ~origin:0 (Repdb.Op.write_only [ (1, 99) ]) ~on_done:(fun _ ->
         ignore
           (P.submit sys ~origin:1
              (Repdb.Op.computed ~reads:[ 1 ] ~f:(fun results ->
                   seen := Some results;
                   []))
              ~on_done:(fun _ -> ()))));
  Sim.Engine.run_until engine (Sim.Time.of_sec 5.0);
  match !seen with
  | Some [ (1, v) ] ->
    (* the reader runs at another site after the writer's origin decided;
       the value must be the committed one once the write reached site 1 —
       all protocols apply everywhere before or shortly after the origin
       decision, so give the read its transaction's own semantics: it read
       either the initial 0 (apply still in flight) or 99, never garbage *)
    check_bool "read committed value or initial" true (v = 99 || v = 0)
  | _ -> Alcotest.fail "read did not run"

let test_read_only_never_aborts proto () =
  let spec =
    R.spec ~n_sites:4 ~txns_per_site:80 ~mpl:3 ~seed:11
      ~profile:
        { Workload.default with Workload.n_keys = 20; ro_fraction = 0.5;
          zipf_theta = 1.0 }
      proto
  in
  let r = R.run spec in
  check_bool "ro never aborted" true
    (Verify.Invariants.read_only_never_aborted r.R.history);
  check_bool "some read-only committed" true (Stats.Summary.count r.R.ro_latency_ms > 0)

(* The baseline offers no such guarantee (a waiting reader can be a
   deadlock victim) — but every read-only transaction still decides. *)
let test_baseline_ro_decides () =
  let spec =
    R.spec ~n_sites:4 ~txns_per_site:80 ~mpl:3 ~seed:11
      ~profile:
        { Workload.default with Workload.n_keys = 20; ro_fraction = 0.5;
          zipf_theta = 1.0 }
      Repdb.Protocol.Baseline
  in
  let r = R.run spec in
  check_int "all decided" 0 r.R.undecided;
  check_bool "some read-only committed" true (Stats.Summary.count r.R.ro_latency_ms > 0)

let test_random_workload_serializable proto seed () =
  let spec =
    R.spec ~n_sites:4 ~txns_per_site:80 ~mpl:2 ~seed
      ~profile:{ Workload.default with Workload.n_keys = 50 }
      proto
  in
  let r = R.run spec in
  check_int "all decided" 0 r.R.undecided;
  check_bool "one-copy serializable" true (R.one_copy_serializable r);
  check_bool "replicas converged" true (R.converged r)

(* The coordinator's commits between its join export and the joiner's
   install, over every rejoin of a run: apply instants at the coordinator
   strictly after it sent the join commit (it exports the snapshot at that
   instant) and before the joiner's reset. The join commit is the message
   the joiner delivers by flush, without a stamp, at its reset. *)
let commits_in_join_windows (r : R.result) =
  let audit = Audit.Log.events r.R.audit in
  let applies = Obs.Recorder.events r.R.recorder in
  List.fold_left
    (fun acc ev ->
      match ev with
      | Audit.Event.Reset { at = reset_at; site = joiner; _ } ->
        let commit =
          List.find_map
            (function
              | Audit.Event.Deliver { at; site; msg; vc = None; flush = true; _ }
                when site = joiner && at = reset_at ->
                Some msg
              | _ -> None)
            audit
          |> Option.get
        in
        let sent_at =
          List.find_map
            (function
              | Audit.Event.Send { at; msg; _ } when msg = commit -> Some at
              | _ -> None)
            audit
          |> Option.get
        in
        let inside (e : Obs.Span.event) =
          e.Obs.Span.phase = Obs.Span.Apply
          && e.Obs.Span.site = commit.Audit.Event.origin
          && Sim.Time.( < ) sent_at e.Obs.Span.at
          && Sim.Time.( < ) e.Obs.Span.at reset_at
        in
        acc + List.length (List.filter inside applies)
      | _ -> acc)
    0 audit

(* The apply-order audit of every site's store, over a run in which a
   broadcast protocol's site 2 crashes and rejoins through state transfer
   while the others keep committing: its apply order is then its snapshot
   source's as of the export, continued. The seed puts a commit at the
   coordinator between its export and the joiner's install for each
   broadcast protocol, so a joiner that took its source's order as of its
   install instead fails here. *)
let test_apply_order_replay_matches proto () =
  let broadcast = proto <> Repdb.Protocol.Baseline in
  let events =
    if broadcast then
      [ (Sim.Time.of_sec 0.1, R.Crash 2); (Sim.Time.of_sec 0.4, R.Recover 2) ]
    else []
  in
  let r =
    R.run
      (R.spec ~n_sites:3 ~txns_per_site:300 ~mpl:2 ~seed:26 ~events
         ~collect_spans:broadcast ~collect_audit:broadcast
         ~profile:{ Workload.default with Workload.n_keys = 40 }
         proto)
  in
  check_int "every store read" 3 (List.length r.R.stores);
  check_bool "site 2 applied" true (H.apply_order r.R.history ~site:2 <> []);
  if broadcast then
    check_bool "the coordinator commits between export and install" true
      (commits_in_join_windows r > 0);
  check_apply_order_replay r.R.history r.R.stores

(* ------------------------------------------------------------------ *)
(* Deadlocks: prevention vs detection *)

let conflict_profile =
  { Workload.default with Workload.n_keys = 8; reads_per_txn = 2;
    writes_per_txn = 2; ro_fraction = 0.0 }

let test_no_deadlocks proto () =
  let spec =
    R.spec ~n_sites:4 ~txns_per_site:60 ~mpl:3 ~seed:23 ~profile:conflict_profile
      proto
  in
  let r = R.run spec in
  check_int "no deadlock cycles" 0 r.R.deadlocks;
  check_bool "no deadlock aborts" true (Verify.Invariants.no_deadlock_aborts r.R.history);
  check_int "all decided (no transaction stuck)" 0 r.R.undecided

let test_baseline_detects_deadlocks () =
  let spec =
    R.spec ~n_sites:4 ~txns_per_site:60 ~mpl:3 ~seed:23 ~profile:conflict_profile
      Repdb.Protocol.Baseline
  in
  let r = R.run spec in
  check_bool "baseline deadlocks under contention" true (r.R.deadlocks > 0);
  check_int "yet every transaction decides" 0 r.R.undecided;
  check_bool "and stays serializable" true (R.one_copy_serializable r)

(* ------------------------------------------------------------------ *)
(* Conflicting writers *)

let test_conflicting_writers proto () =
  (* Two blind writers to the same key from different sites, same instant. *)
  let outcomes, history, stores =
    drive proto
      [
        ("a", 0, Repdb.Op.write_only [ (5, 100) ]);
        ("b", 1, Repdb.Op.write_only [ (5, 200) ]);
      ]
  in
  let a = outcome "a" outcomes and b = outcome "b" outcomes in
  check_bool "both decided" true (a <> H.Committed || b <> H.Committed || true);
  (* Whatever the decisions, replicas agree and the history is 1SR. *)
  check_bool "converged" true (Verify.Convergence.converged stores);
  check_bool "serializable" true (Verify.Serialization.is_one_copy_serializable history);
  (* at least one of them must commit under atomic broadcast (blind writes
     always certify) *)
  if proto = Repdb.Protocol.Atomic then
    check_bool "atomic commits both blind writes" true
      (a = H.Committed && b = H.Committed)

let test_rmw_race_one_aborts_atomic () =
  (* Read-modify-write on the same key from two sites: certification must
     abort at least one; the final value reflects exactly the winners. *)
  let increment = Repdb.Op.computed ~reads:[ 9 ] ~f:(fun results ->
      match results with
      | [ (9, v) ] -> [ (9, v + 1) ]
      | _ -> assert false)
  in
  let outcomes, _, stores =
    drive Repdb.Protocol.Atomic [ ("a", 0, increment); ("b", 1, increment) ]
  in
  let committed =
    List.length
      (List.filter
         (fun l -> outcome l outcomes = H.Committed)
         [ "a"; "b" ])
  in
  check_bool "at most one increment wins a concurrent race" true (committed <= 2);
  let final = Db.Version_store.read_latest (List.assoc 0 stores) 9 in
  check_int "value equals number of committed increments" committed final

(* ------------------------------------------------------------------ *)
(* Causal-protocol specifics *)

let test_causal_pure_implicit_acks_with_traffic () =
  (* ack_delay None: commits only through genuine background traffic *)
  let config =
    { (Repdb.Config.default ~n_sites:4) with Repdb.Config.ack_delay = None }
  in
  let spec =
    R.spec ~n_sites:4 ~config ~txns_per_site:40 ~mpl:2 ~seed:31
      ~background_rate:200.0 Repdb.Protocol.Causal
  in
  let r = R.run spec in
  check_int "all decided via implicit acks" 0 r.R.undecided;
  check_bool "serializable" true (R.one_copy_serializable r)

let test_causal_stalls_without_traffic () =
  (* The paper's caveat: no background traffic, no idle acks — the last
     transactions wait for implicit acknowledgments that never come. *)
  let config =
    { (Repdb.Config.default ~n_sites:4) with Repdb.Config.ack_delay = None }
  in
  let spec =
    R.spec ~n_sites:4 ~config ~txns_per_site:5 ~mpl:1 ~seed:31
      ~drain_limit:(Sim.Time.of_sec 2.0) Repdb.Protocol.Causal
  in
  let r = R.run spec in
  check_bool "commitment stalls" true (r.R.undecided > 0)

let test_causal_idle_ack_unstalls () =
  let spec =
    R.spec ~n_sites:4 ~txns_per_site:5 ~mpl:1 ~seed:31 Repdb.Protocol.Causal
  in
  let r = R.run spec in
  check_int "idle acks finish the tail" 0 r.R.undecided

let test_causal_early_ww_abort () =
  (* Simultaneous writers NACK each other mutually under either setting;
     the early-abort flag additionally dooms the lock holder when the
     conflict is detected in the window before its commit request arrives.
     Deterministic scenario: both die when the flag is on. *)
  let run early =
    let config =
      { (Repdb.Config.default ~n_sites:3) with Repdb.Config.early_ww_abort = early }
    in
    let outcomes, _, _ =
      drive ~config Repdb.Protocol.Causal
        [
          ("a", 0, Repdb.Op.write_only [ (5, 1) ]);
          ("b", 1, Repdb.Op.write_only [ (5, 2) ]);
        ]
    in
    ( outcome "a" outcomes = H.Committed,
      outcome "b" outcomes = H.Committed )
  in
  let a_on, b_on = run true in
  check_bool "early: both concurrent writers abort" true ((not a_on) && not b_on);
  (* Statistically, early abort can only lower the commit rate. *)
  let committed early =
    let config =
      { (Repdb.Config.default ~n_sites:3) with Repdb.Config.early_ww_abort = early }
    in
    let r =
      R.run
        (R.spec ~n_sites:3 ~config ~txns_per_site:60 ~mpl:2 ~seed:19
           ~profile:conflict_profile Repdb.Protocol.Causal)
    in
    r.R.committed
  in
  check_bool "early abort never commits more" true (committed true <= committed false)

let test_causal_nack_aborts_everywhere () =
  (* a conflicting writer must abort at every site, releasing its locks *)
  let outcomes, history, stores =
    drive Repdb.Protocol.Causal
      [
        ("a", 0, Repdb.Op.write_only [ (1, 10); (2, 20) ]);
        ("b", 1, Repdb.Op.write_only [ (2, 21); (3, 31) ]);
      ]
  in
  ignore (outcome "a" outcomes);
  ignore (outcome "b" outcomes);
  check_bool "converged" true (Verify.Convergence.converged stores);
  check_bool "serializable" true (Verify.Serialization.is_one_copy_serializable history)

(* The sampled probe [name] ended the run at 0 at each of five sites. *)
let check_drained ?(context = "") r name =
  let finals =
    List.filter
      (fun ((probe, _), _) -> probe = name)
      (Obs.Sampler.final_values r.R.sampler)
  in
  check_int (name ^ " at every site" ^ context) 5 (List.length finals);
  List.iter
    (fun ((_, labels), value) ->
      check_int
        (Printf.sprintf "%s at site %s%s" name (List.assoc "site" labels) context)
        0 (int_of_float value))
    finals

(* The largest value any site's [name] probe showed at a sampler tick. *)
let probe_peak r name =
  let sampler = r.R.sampler in
  let cols =
    List.concat
      (List.mapi
         (fun i (probe, _) -> if probe = name then [ i ] else [])
         (Obs.Sampler.probes sampler))
  in
  List.fold_left
    (fun acc (_, values) ->
      List.fold_left (fun acc i -> Float.max acc values.(i)) acc cols)
    0.0 (Obs.Sampler.samples sampler)

(* The commit check visits only undecided transactions. That set must
   empty once a run drains, and its peak must follow the load (sites x
   mpl), not the length of the run. *)
let test_causal_undecided_bounded () =
  let run txns_per_site =
    R.run
      (R.spec ~n_sites:5 ~txns_per_site ~mpl:2 ~seed:42
         ~sample_every:(Sim.Time.of_ms 10) Repdb.Protocol.Causal)
  in
  let short = run 100 and long = run 400 in
  check_drained short "causal_undecided" ~context:" after 100 txns/site";
  check_drained long "causal_undecided" ~context:" after 400 txns/site";
  let peak_short = probe_peak short "causal_undecided"
  and peak_long = probe_peak long "causal_undecided" in
  check_bool "the probe sees in-flight transactions" true (peak_short > 0.0);
  check_bool
    (Printf.sprintf "peak at 400 txns/site (%g) within the peak at 100 (%g)"
       peak_long peak_short)
    true (peak_long <= peak_short)

(* ------------------------------------------------------------------ *)
(* Atomic-protocol specifics *)

let test_atomic_ro_snapshot () =
  (* a read-only transaction between two writes sees a consistent prefix *)
  let module P = (val Repdb.Protocol.get Repdb.Protocol.Atomic) in
  let engine = Sim.Engine.create ~seed:41 () in
  let history = H.create () in
  let sys = P.create engine (Repdb.Config.default ~n_sites:3) ~history in
  let ro_result = ref [] in
  ignore
    (P.submit sys ~origin:0
       (Repdb.Op.write_only [ (1, 1); (2, 1) ])
       ~on_done:(fun _ ->
         ignore
           (P.submit sys ~origin:1
              (Repdb.Op.computed ~reads:[ 1; 2 ] ~f:(fun results ->
                   ro_result := results;
                   []))
              ~on_done:(fun _ -> ()))));
  Sim.Engine.run_until engine (Sim.Time.of_sec 5.0);
  match !ro_result with
  | [ (1, a); (2, b) ] -> check_bool "consistent pair" true (a = b)
  | _ -> Alcotest.fail "read did not run"

let test_atomic_total_apply_order () =
  (* ten blind writers on one key, from three origins: all commit, and
     every site installs them in the same order *)
  let submissions =
    List.init 10 (fun i ->
        (Printf.sprintf "w%d" i, i mod 3, Repdb.Op.write_only [ (0, i) ]))
  in
  let _, history, stores = drive Repdb.Protocol.Atomic submissions in
  check_bool "converged" true (Verify.Convergence.converged stores);
  check_bool "serializable" true (Verify.Serialization.is_one_copy_serializable history);
  let writes_key_0 txn =
    match H.find history txn with
    | Some r -> List.mem_assoc 0 r.H.writes
    | None -> false
  in
  let orders =
    List.map
      (fun (site, _) ->
        List.map Db.Txn_id.to_string
          (List.filter writes_key_0 (H.apply_order history ~site)))
      stores
  in
  match orders with
  | first :: rest ->
    check_int "every writer installed" 10 (List.length first);
    List.iter (Alcotest.(check (list string)) "same install order" first) rest;
    List.iter
      (fun (_, store) ->
        Alcotest.(check (option string)) "the last installed is the store's writer"
          (List.nth_opt first 9)
          (Option.map Db.Txn_id.to_string (Db.Version_store.writer_of store 0)))
      stores
  | [] -> Alcotest.fail "no stores"


(* ------------------------------------------------------------------ *)
(* Atomic protocol: batched-writes ablation variant *)

let batched_config n =
  { (Repdb.Config.default ~n_sites:n) with Repdb.Config.atomic_batch_writes = true }

let test_atomic_batched_correct () =
  let config = batched_config 4 in
  let spec =
    R.spec ~n_sites:4 ~config ~txns_per_site:80 ~mpl:2 ~seed:37
      Repdb.Protocol.Atomic
  in
  let r = R.run spec in
  check_int "all decided" 0 r.R.undecided;
  check_bool "serializable" true (R.one_copy_serializable r);
  check_bool "converged" true (R.converged r)

let test_atomic_batched_fewer_messages () =
  let run batch =
    let config =
      { (Repdb.Config.default ~n_sites:4) with Repdb.Config.atomic_batch_writes = batch }
    in
    let r =
      R.run
        (R.spec ~n_sites:4 ~config ~txns_per_site:40 ~mpl:1 ~seed:37
           ~profile:{ Workload.default with Workload.n_keys = 10_000; ro_fraction = 0.0 }
           Repdb.Protocol.Atomic)
    in
    r.R.datagrams
  in
  check_bool "batching sends fewer datagrams" true (run true < run false)

let test_atomic_batched_crash_recover () =
  let config = batched_config 5 in
  let spec =
    R.spec ~n_sites:5 ~config ~txns_per_site:100 ~mpl:2 ~seed:13
      ~events:
        [ (Sim.Time.of_sec 0.3, R.Crash 4); (Sim.Time.of_sec 1.5, R.Recover 4) ]
      Repdb.Protocol.Atomic
  in
  let r = R.run spec in
  check_bool "serializable" true (R.one_copy_serializable r);
  check_bool "converged" true (R.converged r)

(* The total-order state: arrivals awaiting delivery and arrivals awaiting
   a slot. Both must empty once a run drains, and their peaks must follow
   the load, not the length of the run. A sampled peak over a run four
   times as long often reads one or two higher (8 then 9 or 10 here, with
   10 transactions in flight); state that grew with the run would read
   about four times higher. *)
let order_probes = [ "bcast_order_backlog"; "bcast_unassigned" ]

let test_atomic_order_state_bounded batch () =
  let run txns_per_site =
    R.run
      (R.spec ~n_sites:5
         ~config:{ (Repdb.Config.default ~n_sites:5) with Repdb.Config.batch }
         ~txns_per_site ~mpl:2 ~seed:42 ~sample_every:(Sim.Time.of_ms 10)
         Repdb.Protocol.Atomic)
  in
  let short = run 100 and long = run 400 in
  List.iter
    (fun name ->
      check_drained short name ~context:" after 100 txns/site";
      check_drained long name ~context:" after 400 txns/site";
      let peak_short = probe_peak short name and peak_long = probe_peak long name in
      check_bool (name ^ " sees in-flight messages") true (peak_short > 0.0);
      check_bool
        (Printf.sprintf "%s peak at 400 txns/site (%g) under twice the peak at 100 (%g)"
           name peak_long peak_short)
        true (peak_long < 2.0 *. peak_short))
    order_probes

(* Crashing the sequencer runs order sync and, at its rejoin, the joiner's
   fast-forward; the total-order state must still drain everywhere. This is
   the CI replay; sampled every 1 ms, as there, both probes peak at 11. *)
let test_atomic_order_state_sequencer_crash () =
  match
    Chaos.case_of_repro "proto=atomic seed=3 sites=5 script=crash(0)@400000+300000"
  with
  | Error e -> Alcotest.fail e
  | Ok case ->
    let spec = Chaos.spec_of_case Chaos.default_cfg case in
    let r = R.run { spec with R.sample_every = Some (Sim.Time.of_ms 1) } in
    List.iter
      (fun name ->
        check_drained r name;
        check_bool (name ^ " sees in-flight messages") true (probe_peak r name > 0.0))
      order_probes

(* ------------------------------------------------------------------ *)
(* State transfer in isolation *)

let test_state_transfer_roundtrip () =
  let history = H.create () in
  let src =
    Repdb.Site_core.create ~site:0 ~policy:Db.Lock_manager.No_wait ~history ()
  in
  List.iter
    (fun (txn, writes) ->
      H.begin_txn history txn ~origin:txn.Db.Txn_id.origin;
      H.record_writes history txn writes;
      List.iter (fun (k, v) -> Repdb.Site_core.buffer_write src ~txn k v) writes;
      Repdb.Site_core.apply_commit src ~txn)
    [ (Db.Txn_id.make ~origin:0 ~local:1, [ (1, 10); (2, 20) ]);
      (Db.Txn_id.make ~origin:1 ~local:1, [ (1, 11) ]) ];
  let dst =
    Repdb.Site_core.create ~site:3 ~policy:Db.Lock_manager.No_wait ~history ()
  in
  Repdb.State_transfer.import dst (Repdb.State_transfer.export src);
  check_bool "stores equal" true
    (Db.Version_store.fingerprint (Repdb.Site_core.store src)
    = Db.Version_store.fingerprint (Repdb.Site_core.store dst));
  check_int "commit index carried" 2
    (Db.Version_store.commit_index (Repdb.Site_core.store dst));
  Alcotest.(check (list string)) "history applies mirrored"
    (List.map Db.Txn_id.to_string (H.apply_order history ~site:0))
    (List.map Db.Txn_id.to_string (H.apply_order history ~site:3));
  (* replaying the adopted order reproduces the imported store *)
  check_apply_order_replay history [ (3, Repdb.Site_core.store dst) ]

(* A snapshot is a cut at its export. The coordinator keeps applying after
   it exports, and can crash and re-import before the joiner installs; the
   joiner must still take the store and the apply order of the export. *)
let test_state_transfer_export_cut () =
  let history = H.create () in
  let core site =
    Repdb.Site_core.create ~site ~policy:Db.Lock_manager.No_wait ~history ()
  in
  let commit core (origin, local) writes =
    let txn = Db.Txn_id.make ~origin ~local in
    H.begin_txn history txn ~origin;
    H.record_writes history txn writes;
    List.iter (fun (k, v) -> Repdb.Site_core.buffer_write core ~txn k v) writes;
    Repdb.Site_core.apply_commit core ~txn
  in
  let src = core 0 and peer = core 1 and dst = core 2 in
  commit src (0, 1) [ (1, 10) ];
  commit peer (0, 1) [ (1, 10) ];
  commit src (1, 1) [ (1, 11); (2, 20) ];
  let xfer = Repdb.State_transfer.export src in
  let order_at_export = H.apply_order history ~site:0 in
  let fingerprint_at_export =
    Db.Version_store.fingerprint (Repdb.Site_core.store src)
  in
  commit src (0, 2) [ (2, 21) ];
  Repdb.Site_core.reset src;
  Repdb.State_transfer.import src (Repdb.State_transfer.export peer);
  Repdb.State_transfer.import dst xfer;
  let names = List.map Db.Txn_id.to_string in
  Alcotest.(check (list string)) "the source re-imported the peer's order"
    (names (H.apply_order history ~site:1))
    (names (H.apply_order history ~site:0));
  Alcotest.(check (list string)) "the joiner took the order at export"
    [ "T0.1"; "T1.1" ]
    (names (H.apply_order history ~site:2));
  check_bool "same as the source's then" true
    (H.apply_order history ~site:2 = order_at_export);
  check_int "and the store at export" fingerprint_at_export
    (Db.Version_store.fingerprint (Repdb.Site_core.store dst));
  check_apply_order_replay history
    [ (0, Repdb.Site_core.store src); (2, Repdb.Site_core.store dst) ]



(* ------------------------------------------------------------------ *)
(* Site_core in isolation *)

let make_core ?(policy = Db.Lock_manager.No_wait) () =
  let history = H.create () in
  (Repdb.Site_core.create ~site:0 ~policy ~history (), history)

let txn i = Db.Txn_id.make ~origin:0 ~local:i

let test_site_core_reads_record_history () =
  let core, history = make_core () in
  List.iter (fun (k, v) -> Repdb.Site_core.buffer_write core ~txn:(txn 1) k v)
    [ (1, 11) ];
  H.begin_txn history (txn 1) ~origin:0;
  Repdb.Site_core.apply_commit core ~txn:(txn 1);
  H.begin_txn history (txn 2) ~origin:0;
  let results = ref [] in
  Repdb.Site_core.run_reads core ~txn:(txn 2) ~keys:[ 1; 2 ]
    ~on_done:(fun r -> results := r);
  Alcotest.(check (list (pair int int))) "values" [ (1, 11); (2, 0) ] !results;
  match H.find history (txn 2) with
  | Some r ->
    check_int "two reads recorded" 2 (List.length r.H.reads);
    check_bool "reads-from writer" true
      ((List.hd r.H.reads).H.read_from = Some (txn 1))
  | None -> Alcotest.fail "missing record"

let test_site_core_read_waits_for_writer () =
  let core, history = make_core () in
  H.begin_txn history (txn 1) ~origin:0;
  H.begin_txn history (txn 2) ~origin:0;
  Repdb.Site_core.buffer_write core ~txn:(txn 1) 5 50;
  (match Repdb.Site_core.acquire_write core ~txn:(txn 1) 5 ~on_granted:(fun () -> ()) with
  | Db.Lock_manager.Granted -> ()
  | _ -> Alcotest.fail "writer should get the lock");
  let done_ = ref false in
  Repdb.Site_core.run_reads core ~txn:(txn 2) ~keys:[ 5 ]
    ~on_done:(fun r ->
      done_ := true;
      Alcotest.(check (list (pair int int))) "sees committed value" [ (5, 50) ] r);
  check_bool "blocked while writer holds" false !done_;
  Repdb.Site_core.apply_commit core ~txn:(txn 1);
  check_bool "resumed on release" true !done_

let test_site_core_buffer_last_wins () =
  let core, _ = make_core () in
  Repdb.Site_core.buffer_write core ~txn:(txn 1) 1 10;
  Repdb.Site_core.buffer_write core ~txn:(txn 1) 2 20;
  Repdb.Site_core.buffer_write core ~txn:(txn 1) 1 11;
  Alcotest.(check (list (pair int int))) "first-write order, last value"
    [ (1, 11); (2, 20) ]
    (Repdb.Site_core.buffered_writes core ~txn:(txn 1))

(* [buffered_writes] against the hash-table dedup it replaced, and
   [buffered_keys] against its keys, over random buffers of up to eight
   writes on five keys. *)
let prop_site_core_buffer_dedup =
  QCheck.Test.make ~name:"buffered writes match the hash-table dedup" ~count:300
    QCheck.(list_of_size Gen.(0 -- 8) (pair (int_bound 4) small_nat))
    (fun writes ->
      let core, _ = make_core () in
      List.iter (fun (k, v) -> Repdb.Site_core.buffer_write core ~txn:(txn 1) k v) writes;
      let expected =
        let newest = Hashtbl.create 8 in
        List.iter (fun (k, v) -> Hashtbl.replace newest k v) writes;
        List.filter_map
          (fun (k, _) ->
            match Hashtbl.find_opt newest k with
            | Some v ->
              Hashtbl.remove newest k;
              Some (k, v)
            | None -> None)
          writes
      in
      Repdb.Site_core.buffered_writes core ~txn:(txn 1) = expected
      && Repdb.Site_core.buffered_keys core ~txn:(txn 1) = List.map fst expected)

let test_site_core_abort_releases () =
  let core, history = make_core () in
  H.begin_txn history (txn 1) ~origin:0;
  H.begin_txn history (txn 2) ~origin:0;
  Repdb.Site_core.buffer_write core ~txn:(txn 1) 7 70;
  ignore (Repdb.Site_core.acquire_write core ~txn:(txn 1) 7 ~on_granted:(fun () -> ()));
  Repdb.Site_core.abort_local core ~txn:(txn 1);
  check_int "nothing applied" 0
    (Db.Version_store.commit_index (Repdb.Site_core.store core));
  (match Repdb.Site_core.acquire_write core ~txn:(txn 2) 7 ~on_granted:(fun () -> ()) with
  | Db.Lock_manager.Granted -> ()
  | _ -> Alcotest.fail "lock must be free after abort");
  check_int "buffer discarded" 0
    (List.length (Repdb.Site_core.buffered_writes core ~txn:(txn 1)))

(* Counter linearization property: concurrent read-modify-write increments
   on one key; the final replicated value must equal the number of
   committed increments exactly — a lost update or phantom write breaks the
   equality. Run across random seeds for every protocol. *)
let prop_counter proto =
  QCheck.Test.make
    ~name:(Printf.sprintf "counter equals committed increments (%s)" (name proto))
    ~count:15
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let module P = (val Repdb.Protocol.get proto) in
      let engine = Sim.Engine.create ~seed () in
      let history = H.create () in
      let sys = P.create engine (Repdb.Config.default ~n_sites:3) ~history in
      let committed = ref 0 in
      let increment =
        Repdb.Op.computed ~reads:[ 0 ] ~f:(fun results ->
            match results with
            | [ (0, v) ] -> [ (0, v + 1) ]
            | _ -> assert false)
      in
      for i = 0 to 29 do
        ignore
          (Sim.Engine.schedule engine
             ~delay:(Sim.Time.of_us (i * 700))
             (fun () ->
               ignore
                 (P.submit sys ~origin:(i mod 3) increment ~on_done:(fun o ->
                      if o = H.Committed then incr committed))))
      done;
      Sim.Engine.run_until engine (Sim.Time.of_sec 10.0);
      List.for_all
        (fun site -> Db.Version_store.read_latest (P.store sys site) 0 = !committed)
        [ 0; 1; 2 ])

(* ------------------------------------------------------------------ *)
(* Failures *)

let test_crash_recover proto () =
  let spec =
    R.spec ~n_sites:5 ~txns_per_site:100 ~mpl:2 ~seed:13
      ~events:
        [ (Sim.Time.of_sec 0.3, R.Crash 4); (Sim.Time.of_sec 1.5, R.Recover 4) ]
      proto
  in
  let r = R.run spec in
  check_bool "serializable across crash+join" true (R.one_copy_serializable r);
  check_bool "all five replicas converged" true (R.converged r);
  check_int "five stores (including the rejoined one)" 5 (List.length r.R.stores)

(* A rejoining site takes over no locks from before its crash: once the
   run drains, no site holds a lock or has a reader waiting, and no causal
   site holds an undecided transaction. *)
let test_rejoin_leaves_no_locks proto () =
  let spec =
    R.spec ~n_sites:5 ~txns_per_site:300 ~mpl:2 ~seed:13
      ~profile:{ Workload.default with Workload.n_keys = 50 }
      ~sample_every:(Sim.Time.of_ms 10)
      ~events:
        [ (Sim.Time.of_sec 0.3, R.Crash 4); (Sim.Time.of_sec 1.5, R.Recover 4) ]
      proto
  in
  let r = R.run spec in
  List.iter (check_drained r)
    ([ "db_locks_held"; "db_lock_waiters" ]
    @ if proto = Repdb.Protocol.Causal then [ "causal_undecided" ] else [])

let test_majority_continues proto () =
  let spec =
    R.spec ~n_sites:5 ~txns_per_site:80 ~mpl:2 ~seed:29
      ~events:[ (Sim.Time.of_sec 0.2, R.Crash 4) ]
      proto
  in
  let r = R.run spec in
  (* sites 0-3 keep committing after the crash *)
  check_bool "committed beyond pre-crash volume" true (r.R.committed > 100);
  check_bool "serializable" true (R.one_copy_serializable r);
  check_bool "survivors converged" true (R.converged r)


let test_partition_primary_side proto () =
  (* minority loses the quorum: its submissions stop committing; the
     majority side sails on. After healing, minority members rejoin via
     crash+recover state transfer and everything converges. *)
  let module P = (val Repdb.Protocol.get proto) in
  let engine = Sim.Engine.create ~seed:61 () in
  let history = H.create () in
  let sys = P.create engine (Repdb.Config.default ~n_sites:5) ~history in
  let committed_maj = ref 0 and committed_min = ref 0 in
  (* let the membership settle, then cut {3,4} away *)
  Sim.Engine.run_until engine (Sim.Time.of_ms 100);
  P.partition sys [ 3; 4 ];
  (* wait out the suspicion timeout so views reform on both sides *)
  Sim.Engine.run_until engine (Sim.Time.of_sec 1.0);
  for i = 0 to 9 do
    ignore
      (P.submit sys ~origin:(i mod 3)
         (Repdb.Op.write_only [ (i, i) ])
         ~on_done:(fun o -> if o = H.Committed then incr committed_maj));
    ignore
      (P.submit sys ~origin:(3 + (i mod 2))
         (Repdb.Op.write_only [ (100 + i, i) ])
         ~on_done:(fun o -> if o = H.Committed then incr committed_min))
  done;
  Sim.Engine.run_until engine (Sim.Time.of_sec 3.0);
  check_int "majority commits everything" 10 !committed_maj;
  check_int "minority commits nothing" 0 !committed_min;
  (* heal and resynchronize the minority through the join protocol *)
  P.heal sys;
  P.crash sys 3;
  P.crash sys 4;
  Sim.Engine.run_until engine (Sim.Time.of_sec 4.0);
  P.recover sys 3;
  Sim.Engine.run_until engine (Sim.Time.of_sec 6.0);
  P.recover sys 4;
  Sim.Engine.run_until engine (Sim.Time.of_sec 9.0);
  let stores = List.map (fun s -> (s, P.store sys s)) (Net.Site_id.all ~n:5) in
  check_bool "all converged after heal+rejoin" true
    (Verify.Convergence.converged stores);
  check_bool "serializable" true (Verify.Serialization.is_one_copy_serializable history)

(* Soak: larger group, two crash/rejoin rounds, full verification. *)
let test_soak proto () =
  let spec =
    R.spec ~n_sites:7 ~txns_per_site:300 ~mpl:3 ~seed:2718
      ~profile:{ Workload.default with Workload.n_keys = 400; ro_fraction = 0.3 }
      ~events:
        [ (Sim.Time.of_sec 0.4, R.Crash 6);
          (Sim.Time.of_sec 1.2, R.Recover 6);
          (Sim.Time.of_sec 1.8, R.Crash 5);
          (Sim.Time.of_sec 2.6, R.Recover 5) ]
      proto
  in
  let r = R.run spec in
  check_bool "serializable" true (R.one_copy_serializable r);
  check_bool "converged" true (R.converged r);
  check_bool "ro never aborted" true
    (Verify.Invariants.read_only_never_aborted r.R.history);
  check_int "no deadlocks" 0 r.R.deadlocks


let test_lossy_links_correct proto () =
  (* 5%% datagram loss with ARQ: slower, but still serializable, convergent
     and fully decided *)
  let config =
    { (Repdb.Config.default ~n_sites:4) with
      Repdb.Config.loss =
        Some { Net.Network.drop_probability = 0.05; rto = Sim.Time.of_ms 20 } }
  in
  let r =
    R.run (R.spec ~n_sites:4 ~config ~txns_per_site:60 ~mpl:2 ~seed:14 proto)
  in
  check_int "all decided" 0 r.R.undecided;
  check_bool "serializable" true (R.one_copy_serializable r);
  check_bool "converged" true (R.converged r)



(* Random workload-shape property: arbitrary (sane) profile parameters must
   always yield a decided, serializable, convergent run. *)
let prop_random_profile proto =
  QCheck.Test.make
    ~name:(Printf.sprintf "random workload shapes are safe (%s)" (name proto))
    ~count:10
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Sim.Rng.create ~seed in
      let profile =
        {
          Workload.n_keys = 5 + Sim.Rng.int rng 500;
          reads_per_txn = Sim.Rng.int rng 5;
          writes_per_txn = 1 + Sim.Rng.int rng 4;
          ro_fraction = Sim.Rng.float rng 0.9;
          zipf_theta = Sim.Rng.float rng 1.2;
          value_bound = 1 + Sim.Rng.int rng 1000;
        }
      in
      let n_sites = 3 + Sim.Rng.int rng 4 in
      let mpl = 1 + Sim.Rng.int rng 3 in
      let r =
        R.run
          (R.spec ~n_sites ~profile ~txns_per_site:40 ~mpl ~seed:(seed + 7) proto)
      in
      r.R.undecided = 0 && R.one_copy_serializable r && R.converged r)

(* Random fault-injection property: arbitrary crash/recover schedules that
   always keep a majority alive must preserve serializability and replica
   convergence, for every broadcast protocol. *)
let prop_random_faults proto =
  QCheck.Test.make
    ~name:(Printf.sprintf "random crash/recover schedules are safe (%s)" (name proto))
    ~count:12
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Sim.Rng.create ~seed in
      let n = 5 in
      (* build a schedule: a sequence of (crash, recover) windows over
         random non-coordinator-biased sites; at most 2 of 5 down at once *)
      let events = ref [] in
      let down_until = Array.make n 0.0 in
      let t = ref 0.2 in
      let windows = 1 + Sim.Rng.int rng 3 in
      for _ = 1 to windows do
        let site = Sim.Rng.int rng n in
        let concurrent_down =
          Array.to_list down_until
          |> List.filter (fun until_t -> until_t > !t)
          |> List.length
        in
        if down_until.(site) < !t && concurrent_down < 2 then begin
          let len = 0.4 +. Sim.Rng.float rng 0.8 in
          events :=
            (Sim.Time.of_sec !t, R.Crash site)
            :: (Sim.Time.of_sec (!t +. len), R.Recover site)
            :: !events;
          down_until.(site) <- !t +. len
        end;
        t := !t +. 0.3 +. Sim.Rng.float rng 0.5
      done;
      let spec =
        R.spec ~n_sites:n ~txns_per_site:80 ~mpl:2 ~seed:(seed + 1)
          ~events:(List.rev !events) proto
      in
      let r = R.run spec in
      R.one_copy_serializable r && R.converged r)

(* The causal commit check after a delivery visits only the records
   waiting on the sender's acknowledgment or never checked. Whatever it
   skips must not be decidable: after every engine event of a random
   causal run under the chaos fault grammar (crashes, minority cuts, loss
   bursts and rejoins through state transfer), no ready site may hold an
   undecided transaction whose commit check would decide it. *)
let prop_causal_nothing_decidable_left =
  QCheck.Test.make
    ~name:"causal: no undecided record is decidable after any engine event"
    ~count:20
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let module P = Repdb.Causal_proto in
      let rng = Sim.Rng.create ~seed in
      let n = 3 + Sim.Rng.int rng 3 in
      let plan = Chaos.Fault_plan.generate ~rng ~n_sites:n ~max_episodes:3 in
      let config =
        {
          (Repdb.Config.default ~n_sites:n) with
          Repdb.Config.hb_interval = Chaos.Fault_plan.hb_interval;
          suspect_after = Chaos.Fault_plan.suspect_after;
        }
      in
      let engine = Sim.Engine.create ~seed () in
      let sys = P.create engine config ~history:(H.create ()) in
      let profile =
        { Workload.default with Workload.n_keys = 24; ro_fraction = 0.2 }
      in
      let gen = Workload.create profile ~rng:(Sim.Rng.split rng) in
      let rec client site left =
        if left > 0 then
          ignore
            (P.submit sys ~origin:site (Workload.next gen) ~on_done:(fun _ ->
                 ignore
                   (Sim.Engine.schedule engine ~delay:(Sim.Time.of_ms 1) (fun () ->
                        client site (left - 1)))))
      in
      for site = 0 to n - 1 do
        client site 60;
        client site 60
      done;
      List.iter
        (fun (time, ev) ->
          ignore
            (Sim.Engine.schedule_at engine ~time (fun () ->
                 match ev with
                 | R.Crash s -> P.crash sys s
                 | R.Recover s -> P.recover sys s
                 | R.Partition group -> P.partition sys group
                 | R.Heal -> P.heal sys
                 | R.Set_loss loss -> P.set_loss sys loss)))
        (Chaos.Fault_plan.events plan);
      let stop =
        Sim.Time.add (Chaos.Fault_plan.end_time plan) (Sim.Time.of_sec 1.0)
      in
      let events = ref 0 in
      while Sim.Time.( < ) (Sim.Engine.now engine) stop && Sim.Engine.step engine do
        incr events;
        for s = 0 to n - 1 do
          match P.decidable sys s with
          | [] -> ()
          | txn :: _ ->
            QCheck.Test.fail_reportf
              "plan %s: after engine event %d (t=%.6f s), site %d holds the \
               decidable %s undecided"
              (Chaos.Fault_plan.to_string plan) !events
              (Sim.Time.to_sec (Sim.Engine.now engine)) s (Db.Txn_id.to_string txn)
        done
      done;
      true)

(* A site that is down, or up but still joining, cannot take transactions:
   submit answers View_change once, before it returns. *)
let test_unready_site_rejects proto () =
  let module P = (val Repdb.Protocol.get proto) in
  let engine = Sim.Engine.create ~seed:3 () in
  let history = H.create () in
  let sys = P.create engine (Repdb.Config.default ~n_sites:5) ~history in
  let submit_at_4 label =
    let answers = ref [] in
    let txn =
      P.submit sys ~origin:4 (Repdb.Op.write_only [ (1, 1) ])
        ~on_done:(fun o -> answers := o :: !answers)
    in
    check_bool (label ^ ": answered once, before submit returned") true
      (!answers = [ H.Aborted H.View_change ]);
    check_bool (label ^ ": history records the reject") true
      (match H.find history txn with
      | Some r -> r.H.outcome = Some (H.Aborted H.View_change)
      | None -> false);
    answers
  in
  Sim.Engine.run_until engine (Sim.Time.of_ms 100);
  P.crash sys 4;
  let down = submit_at_4 "down" in
  Sim.Engine.run_until engine (Sim.Time.of_sec 1.0);
  P.recover sys 4;
  let joining = submit_at_4 "joining" in
  Sim.Engine.run_until engine (Sim.Time.of_sec 3.0);
  check_int "down: never answered again" 1 (List.length !down);
  check_int "joining: never answered again" 1 (List.length !joining)

let test_baseline_rejects_failures () =
  let module P = (val Repdb.Protocol.get Repdb.Protocol.Baseline) in
  check_bool "reports unsupported" true (not P.supports_failures);
  let engine = Sim.Engine.create () in
  let sys = P.create engine (Repdb.Config.default ~n_sites:3) ~history:(H.create ()) in
  Alcotest.check_raises "crash raises"
    (Invalid_argument "Baseline_rowa: two-phase commit blocks on failures")
    (fun () -> P.crash sys 0)

(* ------------------------------------------------------------------ *)
(* Determinism *)

let test_determinism proto () =
  let run () =
    let r = R.run (R.spec ~n_sites:3 ~txns_per_site:40 ~mpl:2 ~seed:77 proto) in
    (r.R.committed, r.R.aborted, r.R.datagrams)
  in
  check_bool "bit-identical reruns" true (run () = run ())

let () =
  let tc = Alcotest.test_case in
  let per_proto mk label =
    List.map (fun p -> tc (Printf.sprintf "%s (%s)" label (name p)) `Quick (mk p))
  in
  Alcotest.run "protocols"
    [
      ( "basics",
        per_proto test_single_commit "single write commits and replicates"
          all_protocols
        @ per_proto test_read_sees_prior_commit "sequential read sees commit"
            all_protocols );
      ( "read-only",
        per_proto test_read_only_never_aborts "never aborted" broadcast_protocols
        @ [ tc "baseline: read-only still decides" `Quick test_baseline_ro_decides ] );
      ( "serializability",
        List.concat_map
          (fun p ->
            List.map
              (fun seed ->
                tc
                  (Printf.sprintf "random workload 1SR (%s, seed %d)" (name p) seed)
                  `Quick
                  (test_random_workload_serializable p seed))
              [ 3; 4 ])
          all_protocols
        @ per_proto test_apply_order_replay_matches
            "apply-order replay equals store" all_protocols );
      ( "deadlocks",
        per_proto test_no_deadlocks "prevention" broadcast_protocols
        @ [ tc "baseline detects and resolves" `Quick test_baseline_detects_deadlocks ] );
      ( "conflicts",
        per_proto test_conflicting_writers "concurrent writers stay consistent"
          all_protocols
        @ [ tc "atomic rmw race certifies" `Quick test_rmw_race_one_aborts_atomic ] );
      ( "causal",
        [
          tc "pure implicit acks with traffic" `Quick
            test_causal_pure_implicit_acks_with_traffic;
          tc "stalls without traffic (the paper's caveat)" `Quick
            test_causal_stalls_without_traffic;
          tc "idle acks unstall" `Quick test_causal_idle_ack_unstalls;
          tc "early concurrent-write abort" `Quick test_causal_early_ww_abort;
          tc "nack aborts everywhere" `Quick test_causal_nack_aborts_everywhere;
          tc "undecided set drains and stays bounded" `Quick
            test_causal_undecided_bounded;
          QCheck_alcotest.to_alcotest prop_causal_nothing_decidable_left;
        ] );
      ( "atomic",
        [
          tc "read-only snapshot" `Quick test_atomic_ro_snapshot;
          tc "total apply order" `Quick test_atomic_total_apply_order;
          tc "batched variant correct" `Quick test_atomic_batched_correct;
          tc "batched variant cheaper" `Quick test_atomic_batched_fewer_messages;
          tc "batched variant survives crash" `Quick test_atomic_batched_crash_recover;
          tc "order state drains and stays bounded" `Quick
            (test_atomic_order_state_bounded None);
          tc "order state drains and stays bounded, frames of 16" `Quick
            (test_atomic_order_state_bounded
               (Some { Broadcast.Endpoint.max_msgs = 16; max_delay = Sim.Time.of_ms 1 }));
          tc "order state drains after a sequencer crash" `Quick
            test_atomic_order_state_sequencer_crash;
        ] );
      ( "state transfer",
        [
          tc "export/import roundtrip" `Quick test_state_transfer_roundtrip;
          tc "a snapshot is a cut at its export" `Quick
            test_state_transfer_export_cut;
        ] );
      ( "site core",
        [
          tc "reads record history" `Quick test_site_core_reads_record_history;
          tc "reads wait for writers" `Quick test_site_core_read_waits_for_writer;
          tc "buffer last-wins" `Quick test_site_core_buffer_last_wins;
          QCheck_alcotest.to_alcotest prop_site_core_buffer_dedup;
          tc "abort releases" `Quick test_site_core_abort_releases;
        ] );
      ( "counter property",
        List.map (fun p -> QCheck_alcotest.to_alcotest (prop_counter p)) all_protocols );
      ( "fault injection",
        List.map
          (fun p -> QCheck_alcotest.to_alcotest (prop_random_faults p))
          broadcast_protocols );
      ( "random workload shapes",
        List.map
          (fun p -> QCheck_alcotest.to_alcotest (prop_random_profile p))
          all_protocols );
      ( "failures",
        per_proto test_crash_recover "crash and rejoin" broadcast_protocols
        @ per_proto test_rejoin_leaves_no_locks "rejoin leaves no locks behind"
            [ Repdb.Protocol.Reliable; Repdb.Protocol.Causal ]
        @ per_proto test_majority_continues "majority continues" broadcast_protocols
        @ per_proto test_unready_site_rejects "submit at a down or joining site"
            broadcast_protocols
        @ [ tc "baseline rejects failures" `Quick test_baseline_rejects_failures ]
        @ per_proto test_partition_primary_side "partition: primary side only"
            broadcast_protocols
        @ per_proto test_soak "soak: 7 sites, two crash/rejoin rounds"
            broadcast_protocols
        @ per_proto test_lossy_links_correct "correct over lossy links"
            all_protocols );
      ("determinism", per_proto test_determinism "reruns identical" all_protocols);
    ]
