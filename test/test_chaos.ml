(* Chaos harness: fault-plan grammar (well-formedness, round-trip,
   shrinking), clean protocols passing adversarial schedules end to end,
   and the planted-bug self-test — the checkers must catch the bug and
   shrink it to a deterministically replayable repro. *)

module Fp = Chaos.Fault_plan

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let us = Sim.Time.to_us

let plan_for seed = Chaos.plan_of_seed Chaos.default_cfg ~seed

(* ------------------------------------------------------------------ *)
(* Plan well-formedness *)

let test_plans_well_formed () =
  for seed = 0 to 199 do
    let n_sites, plan = plan_for seed in
    let n_eps = List.length plan in
    check_bool
      (Printf.sprintf "seed %d: episode count in 1..max" seed)
      true
      (n_eps >= 1 && n_eps <= Chaos.default_cfg.Chaos.max_episodes);
    (* Disjoint, ordered windows with a stabilization gap between them. *)
    let windows = List.map Fp.episode_window plan in
    List.iteri
      (fun i (s, e) ->
        check_bool
          (Printf.sprintf "seed %d: window %d positive" seed i)
          true
          (us s > 0 && us e > us s);
        match List.nth_opt windows (i + 1) with
        | Some (s', _) ->
          check_bool
            (Printf.sprintf "seed %d: window %d disjoint from %d" seed i (i + 1))
            true (us s' > us e)
        | None -> ())
      windows;
    List.iter
      (fun ep ->
        match ep with
        | Fp.Outage { site; duration; _ } ->
          check_bool "outage site in range" true (site >= 0 && site < n_sites);
          (* Detectability: the fault must outlast the suspicion timeout,
             or it is silent loss with no view change. *)
          check_bool "outage outlasts the detector" true
            (us duration > us Fp.suspect_after)
        | Fp.Cut { group; duration; _ } ->
          let sorted = List.sort_uniq compare group in
          check_int "cut members distinct" (List.length group)
            (List.length sorted);
          List.iter
            (fun s ->
              check_bool "cut member in range" true (s >= 0 && s < n_sites))
            group;
          check_bool "cut is a strict minority" true
            (List.length group >= 1 && 2 * List.length group < n_sites);
          check_bool "cut outlasts the detector" true
            (us duration > us Fp.suspect_after)
        | Fp.Loss_burst { pct; _ } ->
          check_bool "loss pct sane" true (pct >= 1 && pct < 100))
      plan;
    (* Compilation is sorted by time. *)
    let times = List.map (fun (t, _) -> us t) (Fp.events plan) in
    check_bool
      (Printf.sprintf "seed %d: event schedule sorted" seed)
      true
      (List.sort compare times = times);
    check_bool "end_time is the schedule's last event" true
      (match List.rev times with
      | last :: _ -> last = us (Fp.end_time plan)
      | [] -> us (Fp.end_time plan) = 0)
  done

(* ------------------------------------------------------------------ *)
(* Text round-trip *)

let test_plan_round_trip () =
  for seed = 0 to 199 do
    let _, plan = plan_for seed in
    match Fp.of_string (Fp.to_string plan) with
    | Ok plan' ->
      check_bool
        (Printf.sprintf "seed %d: round-trip is byte-exact" seed)
        true
        (Fp.to_string plan' = Fp.to_string plan && plan' = plan)
    | Error e -> Alcotest.failf "seed %d: parse failed: %s" seed e
  done;
  check_bool "empty plan renders as none" true (Fp.to_string [] = "none");
  (match Fp.of_string "none" with
  | Ok [] -> ()
  | _ -> Alcotest.fail "none parses to the empty plan");
  (match Fp.of_string "" with
  | Ok [] -> ()
  | _ -> Alcotest.fail "empty string parses to the empty plan");
  List.iter
    (fun junk ->
      match Fp.of_string junk with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S must not parse" junk)
    [ "garbage(1)@2+3"; "loss()@400000+300000"; "loss(%)@1+1"; "crash)0(@1+1" ]

(* ------------------------------------------------------------------ *)
(* Shrinking *)

let measure plan =
  let eps = List.length plan in
  let dur, members =
    List.fold_left
      (fun (d, m) ep ->
        match ep with
        | Fp.Outage { duration; _ } | Fp.Loss_burst { duration; _ } ->
          (d + us duration, m)
        | Fp.Cut { duration; group; _ } ->
          (d + us duration, m + List.length group))
      (0, 0) plan
  in
  (eps, dur, members)

let test_shrink_candidates_strictly_smaller () =
  for seed = 0 to 199 do
    let _, plan = plan_for seed in
    let e0, d0, m0 = measure plan in
    List.iter
      (fun cand ->
        let e, d, m = measure cand in
        check_bool
          (Printf.sprintf "seed %d: candidate no larger on any axis" seed)
          true
          (e <= e0 && d <= d0 && m <= m0);
        check_bool
          (Printf.sprintf "seed %d: candidate strictly smaller" seed)
          true
          (e < e0 || d < d0 || m < m0))
      (Fp.shrink_candidates plan)
  done;
  check_bool "empty plan has no candidates" true (Fp.shrink_candidates [] = [])

(* ------------------------------------------------------------------ *)
(* End to end: clean protocols survive their schedules *)

let test_clean_protocols_pass () =
  List.iter
    (fun seed ->
      List.iter
        (fun proto ->
          let case = Chaos.case_of_seed Chaos.default_cfg proto ~seed in
          let report = Chaos.run_case Chaos.default_cfg case in
          if not (Chaos.verdict_ok report) then
            Alcotest.failf "%s fails: %s" (Chaos.repro case)
              (Chaos.verdict_summary report))
        Chaos.default_cfg.Chaos.protocols)
    [ 0; 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Planted-bug self-test *)

let planted_cfg =
  {
    Chaos.default_cfg with
    Chaos.protocols = [ Repdb.Protocol.Atomic ];
    planted_bug = true;
  }

let test_planted_bug_caught_and_shrunk () =
  (* Acking before total-order delivery must surface as a serialization
     violation, shrink to a smaller (here: empty) schedule, and replay
     deterministically from the shrunk repro line. *)
  let failures = Chaos.run_seed planted_cfg ~seed:0 in
  match failures with
  | [] -> Alcotest.fail "planted bug escaped the checkers"
  | f :: _ ->
    check_bool "original report fails" true
      (not (Chaos.verdict_ok f.Chaos.report));
    check_bool "shrunk report still fails" true
      (not (Chaos.verdict_ok f.Chaos.shrunk_report));
    let e0, d0, m0 = measure f.Chaos.case.Chaos.plan in
    let e, d, m = measure f.Chaos.shrunk.Chaos.plan in
    check_bool "shrunk plan no larger" true (e <= e0 && d <= d0 && m <= m0);
    (* Round-trip the shrunk repro line and re-run it: same verdict. *)
    let line = Chaos.repro f.Chaos.shrunk in
    (match Chaos.case_of_repro line with
    | Error e -> Alcotest.failf "repro line does not parse: %s" e
    | Ok case ->
      check_bool "repro line round-trips to the same case" true
        (Chaos.repro case = line);
      let replayed = Chaos.run_case planted_cfg case in
      Alcotest.(check string) "replay reproduces the exact verdict"
        (Chaos.verdict_summary f.Chaos.shrunk_report)
        (Chaos.verdict_summary replayed))

let test_repro_round_trip () =
  List.iter
    (fun seed ->
      List.iter
        (fun proto ->
          let case = Chaos.case_of_seed Chaos.default_cfg proto ~seed in
          let line = Chaos.repro case in
          match Chaos.case_of_repro line with
          | Ok case' ->
            check_bool
              (Printf.sprintf "repro round-trip (seed %d)" seed)
              true
              (Chaos.repro case' = line && case' = case)
          | Error e -> Alcotest.failf "%s: %s" line e)
        Chaos.default_cfg.Chaos.protocols)
    [ 0; 7; 42 ];
  (* Malformed lines are errors, never exceptions: the CLI prints them. *)
  List.iter
    (fun line ->
      match Chaos.case_of_repro line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S must not parse" line)
    [
      "proto=atomic seed=3 sites=5 script=crash(7)@400000+300000";
      "proto=atomic seed=3 sites=5 script=cut(0|9)@400000+300000";
      "proto=atomic seed=3 sites=5 script=loss()@400000+300000";
      (* one more site than a site set has bits *)
      "proto=atomic seed=3 sites=64 script=crash(10)@400000+300000";
    ]

(* ------------------------------------------------------------------ *)
(* Batched cases *)

let batched_cfg =
  {
    Chaos.default_cfg with
    Chaos.batch =
      Some { Broadcast.Endpoint.max_msgs = 8; max_delay = Sim.Time.of_ms 1 };
    audit = true;
  }

let test_batched_repro_round_trip () =
  (* Batched repro lines carry the batch policy and replay to the exact
     same case; lines without the field keep parsing as unbatched so
     pre-batching repros stay valid. *)
  List.iter
    (fun seed ->
      List.iter
        (fun proto ->
          let case = Chaos.case_of_seed batched_cfg proto ~seed in
          check_bool "generated case is batched" true (case.Chaos.batch <> None);
          let line = Chaos.repro case in
          let has_batch =
            let n = String.length line in
            let needle = "batch=8/" in
            let k = String.length needle in
            let rec go i =
              i + k <= n && (String.sub line i k = needle || go (i + 1))
            in
            go 0
          in
          check_bool "repro line names the batch policy" true has_batch;
          match Chaos.case_of_repro line with
          | Ok case' ->
            check_bool
              (Printf.sprintf "batched repro round-trip (seed %d)" seed)
              true
              (Chaos.repro case' = line && case' = case)
          | Error e -> Alcotest.failf "%s: %s" line e)
        Chaos.default_cfg.Chaos.protocols)
    [ 0; 7; 42 ];
  (* Back-compat: a line with no batch field is an unbatched case. *)
  let plain = Chaos.case_of_seed Chaos.default_cfg Repdb.Protocol.Atomic ~seed:3 in
  let line = Chaos.repro plain in
  (match Chaos.case_of_repro line with
  | Ok case' -> check_bool "no batch field parses as None" true
      (case'.Chaos.batch = None && case' = plain)
  | Error e -> Alcotest.failf "%s: %s" line e)

let test_batched_audited_sweep () =
  (* A small batched sweep with the broadcast-contract monitors on: frames
     must not break safety or the audited delivery contracts under faults. *)
  List.iter
    (fun seed ->
      match Chaos.run_seed batched_cfg ~seed with
      | [] -> ()
      | f :: _ ->
        Alcotest.failf "batched case fails: %s: %s"
          (Chaos.repro f.Chaos.case)
          (Chaos.verdict_summary f.Chaos.report))
    [ 0; 1 ]

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "chaos"
    [
      ( "fault_plan",
        [
          tc "generated plans well-formed" `Quick test_plans_well_formed;
          tc "text round-trip" `Quick test_plan_round_trip;
          tc "shrink candidates strictly smaller" `Quick
            test_shrink_candidates_strictly_smaller;
        ] );
      ( "end_to_end",
        [
          tc "clean protocols pass" `Slow test_clean_protocols_pass;
          tc "planted bug caught and shrunk" `Slow
            test_planted_bug_caught_and_shrunk;
          tc "repro lines round-trip" `Quick test_repro_round_trip;
          tc "batched repro lines round-trip" `Quick
            test_batched_repro_round_trip;
          tc "batched audited sweep passes" `Slow test_batched_audited_sweep;
        ] );
    ]
