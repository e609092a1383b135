module R = Exper.Runner
module Fault_plan = Fault_plan

type cfg = {
  n_sites_choices : int list;
  txns_per_site : int;
  mpl : int;
  profile : Workload.profile;
  protocols : Repdb.Protocol.id list;
  max_episodes : int;
  drain_limit : Sim.Time.t;
  shrink_budget : int;
  planted_bug : bool;
  audit : bool;
  batch : Broadcast.Endpoint.batch option;
}

let default_cfg =
  {
    n_sites_choices = [ 4; 5; 7 ];
    txns_per_site = 60;
    mpl = 2;
    profile =
      {
        Workload.default with
        Workload.n_keys = 64;
        reads_per_txn = 2;
        writes_per_txn = 2;
        ro_fraction = 0.25;
      };
    protocols = Repdb.Protocol.broadcast_based;
    max_episodes = 3;
    drain_limit = Sim.Time.of_sec 5.0;
    shrink_budget = 64;
    planted_bug = false;
    audit = false;
    batch = None;
  }

type case = {
  protocol : Repdb.Protocol.id;
  seed : int;
  n_sites : int;
  plan : Fault_plan.t;
  batch : Broadcast.Endpoint.batch option;
      (* carried in the case (and its repro line) so a replay is exact
         without having to restate CLI flags *)
}

(* One seed maps to one (site count, fault plan) pair, shared by every
   protocol: the three protocols face the same adversarial schedule. The
   plan stream is salted so it is not the engine's stream (Runner seeds its
   engine with the same integer). *)
let plan_of_seed cfg ~seed =
  let rng = Sim.Rng.create ~seed:(seed lxor 0x5eed_c4a0) in
  let n_sites =
    match cfg.n_sites_choices with
    | [] -> invalid_arg "Chaos: empty n_sites_choices"
    | choices -> List.nth choices (Sim.Rng.int rng (List.length choices))
  in
  (n_sites, Fault_plan.generate ~rng ~n_sites ~max_episodes:cfg.max_episodes)

let case_of_seed cfg protocol ~seed =
  let n_sites, plan = plan_of_seed cfg ~seed in
  { protocol; seed; n_sites; plan; batch = cfg.batch }

let spec_of_case cfg case =
  (* Fast failure detection (see the Fault_plan timing profile): fault
     windows must outlast the detector, so a fast detector keeps them — and
     whole runs — short. *)
  let config =
    {
      (Repdb.Config.default ~n_sites:case.n_sites) with
      Repdb.Config.hb_interval = Fault_plan.hb_interval;
      suspect_after = Fault_plan.suspect_after;
      atomic_premature_ack = cfg.planted_bug;
      batch = case.batch;
    }
  in
  R.spec ~config ~profile:cfg.profile ~txns_per_site:cfg.txns_per_site
    ~mpl:cfg.mpl ~seed:case.seed ~events:(Fault_plan.events case.plan)
    ~drain_limit:cfg.drain_limit ~collect_audit:cfg.audit ~n_sites:case.n_sites
    case.protocol

(* One case's judgement: the end-to-end execution checks always; the
   broadcast-contract monitors additionally when [cfg.audit] is on. *)
type verdict = {
  check : Verify.Check.report;
  audit_report : Audit.Log.report option;
}

let verdict_ok v =
  Verify.Check.ok v.check
  && (match v.audit_report with
     | None -> true
     | Some r -> Audit.Log.report_ok r)

let verdict_summary v =
  match v.audit_report with
  | None -> Verify.Check.summary v.check
  | Some r ->
    Verify.Check.summary v.check ^ " | audit: " ^ Audit.Log.summary r

let run_case cfg case =
  let result = R.run (spec_of_case cfg case) in
  {
    check = R.check_execution result;
    audit_report =
      (if cfg.audit then Some (Audit.Log.finalize result.R.audit) else None);
  }

(* ------------------------------------------------------------------ *)
(* Shrinking *)

type failure = {
  case : case;
  report : verdict;
  shrunk : case;
  shrunk_report : verdict;
  shrink_runs : int;
}

let shrink cfg case report =
  let budget = ref cfg.shrink_budget in
  (* Greedy fixpoint: take the first strictly-smaller candidate that still
     fails and restart from it; stop when every candidate passes (local
     minimum) or the run budget is spent. *)
  let rec go case report =
    let rec try_candidates = function
      | [] -> (case, report)
      | plan' :: rest ->
        if !budget <= 0 then (case, report)
        else begin
          decr budget;
          let case' = { case with plan = plan' } in
          let report' = run_case cfg case' in
          if verdict_ok report' then try_candidates rest
          else go case' report'
        end
    in
    try_candidates (Fault_plan.shrink_candidates case.plan)
  in
  let shrunk, shrunk_report = go case report in
  { case; report; shrunk; shrunk_report; shrink_runs = cfg.shrink_budget - !budget }

(* ------------------------------------------------------------------ *)
(* Fuzzing *)

type outcome = { seeds : int; cases : int; failures : failure list }

let run_seed cfg ~seed =
  List.filter_map
    (fun protocol ->
      let case = case_of_seed cfg protocol ~seed in
      let report = run_case cfg case in
      if verdict_ok report then None else Some (shrink cfg case report))
    cfg.protocols

let fuzz cfg ~seeds =
  (* One seed is one unit of pool work (its protocols and any shrinking run
     inside the worker); Parallel.map returns in input order and every case
     is a pure function of the cfg and seed, so the outcome — and anything
     rendered from it — is identical whatever the pool size. *)
  let failures = List.concat (Parallel.map seeds ~f:(fun seed -> run_seed cfg ~seed)) in
  {
    seeds = List.length seeds;
    cases = List.length seeds * List.length cfg.protocols;
    failures;
  }

(* ------------------------------------------------------------------ *)
(* Repro lines *)

let repro case =
  Printf.sprintf "proto=%s seed=%d sites=%d script=%s%s"
    (Repdb.Protocol.name case.protocol)
    case.seed case.n_sites
    (Fault_plan.to_string case.plan)
    (match case.batch with
    | None -> ""
    | Some { Broadcast.Endpoint.max_msgs; max_delay } ->
      Printf.sprintf " batch=%d/%d" max_msgs (Sim.Time.to_us max_delay))

let case_of_repro line =
  let fields =
    List.filter_map
      (fun tok ->
        match String.index_opt tok '=' with
        | Some i ->
          Some
            ( String.sub tok 0 i,
              String.sub tok (i + 1) (String.length tok - i - 1) )
        | None -> None)
      (String.split_on_char ' ' (String.trim line))
  in
  let field k = List.assoc_opt k fields in
  (* Optional batching field, absent from pre-batching repro lines:
     "batch=<max_msgs>/<max_delay_us>". *)
  let batch =
    match field "batch" with
    | None -> Ok None
    | Some s -> (
      match String.split_on_char '/' s with
      | [ msgs; delay_us ] -> (
        match (int_of_string_opt msgs, int_of_string_opt delay_us) with
        | Some m, Some d when m >= 1 && d >= 0 ->
          Ok
            (Some
               {
                 Broadcast.Endpoint.max_msgs = m;
                 max_delay = Sim.Time.of_us d;
               })
        | _ -> Error (Printf.sprintf "bad batch field %S" s))
      | _ -> Error (Printf.sprintf "bad batch field %S" s))
  in
  match (field "proto", field "seed", field "sites", field "script", batch) with
  | _, _, _, _, Error e -> Error e
  | Some proto, Some seed, Some sites, Some script, Ok batch -> (
    match
      ( Repdb.Protocol.of_name proto,
        int_of_string_opt seed,
        int_of_string_opt sites,
        Fault_plan.of_string script )
    with
    | Some protocol, Some seed, Some n_sites, Ok plan
      when n_sites >= 1 && n_sites <= Net.Site_id.max_sites ->
      let site_ok site = site < n_sites in
      if
        List.for_all
          (function
            | Fault_plan.Outage { site; _ } -> site_ok site
            | Cut { group; _ } -> List.for_all site_ok group
            | Loss_burst _ -> true)
          plan
      then Ok { protocol; seed; n_sites; plan; batch }
      else
        Error
          (Printf.sprintf "script names a site outside 0..%d" (n_sites - 1))
    | None, _, _, _ -> Error (Printf.sprintf "unknown protocol %S" proto)
    | _, _, _, Error e -> Error e
    | _ -> Error "bad seed/sites field"
  )
  | _ ->
    Error
      "expected \"proto=<name> seed=<int> sites=<int> script=<episodes> \
       [batch=<msgs>/<delay_us>]\""

let failure_lines f =
  [
    Printf.sprintf "FAIL %s :: %s" (repro f.case) (verdict_summary f.report);
    Printf.sprintf "  shrunk (%d runs) -> %s :: %s" f.shrink_runs
      (repro f.shrunk)
      (verdict_summary f.shrunk_report);
  ]

let render outcome =
  let lines =
    List.concat_map failure_lines outcome.failures
    @ [
        Printf.sprintf "fuzz: %d seeds, %d cases, %d failures" outcome.seeds
          outcome.cases
          (List.length outcome.failures);
      ]
  in
  String.concat "\n" lines
