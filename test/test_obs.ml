(* The observability layer: span-phase percentiles against the old
   histogram, span well-formedness per protocol, spans and probe totals
   byte-identical at pool sizes 1 vs 8, and the exporters' structural
   guarantees. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let check_float name expected got =
  Alcotest.(check (float 1e-9)) name expected got

let with_jobs n f =
  Parallel.set_jobs (Some n);
  Fun.protect ~finally:(fun () -> Parallel.set_jobs None) f

let count_sub s sub =
  let n = String.length sub in
  let last = String.length s - n in
  let rec go i acc =
    if i > last then acc
    else if String.sub s i n = sub then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  if n = 0 then 0 else go 0 0

let contains s sub = count_sub s sub > 0

(* ---------------------------------------------------------------- *)
(* Span-phase percentiles                                           *)
(* ---------------------------------------------------------------- *)

let summary_of values =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) values;
  s

let test_percentile_bucket_edges () =
  let one v = Obs.Span_stats.percentile (summary_of [ v ]) 1.0 in
  check_float "below the first bound" 0.01 (one 0.005);
  check_float "just above 1.0 rounds up" 2.0 (one 1.000001);
  check_float "above 10 s reports the sample" 10000.5 (one 10000.5);
  (* a sample exactly on a bound reports that bound *)
  Array.iter
    (fun b -> check_float (Printf.sprintf "bound %g reports itself" b) b (one b))
    Hist_reference.default_bounds

let test_percentile_nearest_rank () =
  let empty = Stats.Summary.create () in
  check_float "empty summary reports 0" 0.0
    (Obs.Span_stats.percentile empty 0.5);
  let s = summary_of [ 0.5; 1.5; 4.0; 12000.0 ] in
  (* nearest rank: p50 over 4 samples is the 2nd, 1.5, in the (1,2] bucket *)
  check_float "p50 is a bound" 2.0 (Obs.Span_stats.percentile s 0.5);
  check_float "p75" 5.0 (Obs.Span_stats.percentile s 0.75);
  check_float "p0 is the first sample's bound" 0.5
    (Obs.Span_stats.percentile s 0.0);
  (* past the last bound: the exact observed maximum *)
  check_float "p100 reports observed max" 12000.0
    (Obs.Span_stats.percentile s 1.0);
  List.iter
    (fun q ->
      check_bool
        (Printf.sprintf "quantile %g rejected" q)
        true
        (try
           ignore (Obs.Span_stats.percentile s q);
           false
         with Invalid_argument _ -> true))
    [ 1.5; -0.1 ]

(* The summary against the histogram it replaced: same count, bit-equal
   mean and percentile, for samples on, just off and past every bound. *)
let prop_matches_hist_reference =
  let bits = Int64.bits_of_float in
  let sample =
    QCheck.Gen.(
      oneof
        [
          return 0.0;
          oneofa Hist_reference.default_bounds;
          map2 ( +. ) (oneofa Hist_reference.default_bounds)
            (oneofl [ -1e-9; 1e-9 ]);
          float_range 10000.0 1e6;
          float_range 0.0 10000.0;
        ])
  in
  let q =
    QCheck.Gen.(
      oneof [ oneofl [ 0.0; 0.5; 0.95; 0.99; 1.0 ]; float_range 0.0 1.0 ])
  in
  QCheck.Test.make ~count:2000
    ~name:"span percentiles match the old histogram"
    QCheck.(
      make
        ~print:
          Print.(pair (list (Printf.sprintf "%h")) (Printf.sprintf "%h"))
        Gen.(pair (list_size (int_range 0 40) sample) q))
    (fun (values, q) ->
      let h = Hist_reference.create () in
      List.iter (Hist_reference.observe h) values;
      let s = summary_of values in
      Stats.Summary.count s = Hist_reference.count h
      && bits (Stats.Summary.mean s) = bits (Hist_reference.mean h)
      && bits (Obs.Span_stats.percentile s q)
         = bits (Hist_reference.percentile h q))

(* ---------------------------------------------------------------- *)
(* Recorder well-formedness by construction                         *)
(* ---------------------------------------------------------------- *)

let t_us = Sim.Time.of_us

let test_recorder_balances_by_construction () =
  let r = Obs.Recorder.create () in
  Obs.Recorder.submit r ~at:(t_us 0) ~site:0 ~origin:0 ~local:1;
  Obs.Recorder.phase_begin r ~at:(t_us 10) ~site:0 ~origin:0 ~local:1
    Obs.Span.Lock_wait;
  (* opening the next phase closes the previous one at the same instant *)
  Obs.Recorder.phase_begin r ~at:(t_us 20) ~site:0 ~origin:0 ~local:1
    Obs.Span.Broadcast;
  (* decide closes whatever is open before its instant *)
  Obs.Recorder.decide r ~at:(t_us 30) ~site:0 ~origin:0 ~local:1
    ~committed:true;
  Obs.Recorder.apply r ~at:(t_us 30) ~site:0 ~origin:0 ~local:1;
  (* a stranded transaction: never decided, closed as dangling *)
  Obs.Recorder.phase_begin r ~at:(t_us 40) ~site:1 ~origin:1 ~local:1
    Obs.Span.Broadcast;
  Obs.Recorder.close_dangling r ~at:(t_us 50);
  let events = Obs.Recorder.events r in
  (match Obs.Export.validate events with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("recorder emitted an unbalanced trace: " ^ e));
  let count kind =
    List.length (List.filter (fun e -> e.Obs.Span.kind = kind) events)
  in
  check_int "every opened span closes" (count Obs.Span.Begin)
    (count Obs.Span.End);
  let stats = Obs.Span_stats.of_events events in
  check_int "lock-wait span measured" 1
    (Stats.Summary.count stats.Obs.Span_stats.lock_wait);
  (* two broadcast spans were opened but the dangling one is excluded *)
  check_int "dangling span excluded from stats" 1
    (Stats.Summary.count stats.Obs.Span_stats.broadcast)

let test_export_validate_rejects_malformed () =
  let ev ~at ~kind ~phase =
    {
      Obs.Span.at = t_us at;
      site = 0;
      origin = 0;
      local = 1;
      phase;
      kind;
      note = "";
    }
  in
  let unmatched_end =
    [ ev ~at:5 ~kind:Obs.Span.End ~phase:Obs.Span.Broadcast ]
  in
  check_bool "end without begin rejected" true
    (Result.is_error (Obs.Export.validate unmatched_end));
  let left_open =
    [ ev ~at:5 ~kind:Obs.Span.Begin ~phase:Obs.Span.Broadcast ]
  in
  check_bool "unclosed span rejected" true
    (Result.is_error (Obs.Export.validate left_open));
  let backwards =
    [
      ev ~at:10 ~kind:Obs.Span.Instant ~phase:Obs.Span.Submit;
      ev ~at:5 ~kind:Obs.Span.Instant ~phase:Obs.Span.Decide;
    ]
  in
  check_bool "time going backwards rejected" true
    (Result.is_error (Obs.Export.validate backwards))

(* ---------------------------------------------------------------- *)
(* Per-protocol span well-formedness on real runs                   *)
(* ---------------------------------------------------------------- *)

module R = Exper.Runner

let traced_run proto =
  R.run
    (R.spec ~n_sites:3 ~txns_per_site:25 ~mpl:2 ~seed:11 ~collect_spans:true
       proto)

(* For each transaction, the Begin events at its origin site, in
   emission order. *)
let origin_begin_phases events =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun e ->
      if
        e.Obs.Span.kind = Obs.Span.Begin
        && e.Obs.Span.origin >= 0
        && e.Obs.Span.site = e.Obs.Span.origin
      then
        let key = (e.Obs.Span.origin, e.Obs.Span.local) in
        Hashtbl.replace tbl key
          (e.Obs.Span.phase :: (try Hashtbl.find tbl key with Not_found -> [])))
    events;
  Hashtbl.fold (fun key phases acc -> (key, List.rev phases) :: acc) tbl []

let committed_updates events =
  List.filter_map
    (fun e ->
      if
        e.Obs.Span.kind = Obs.Span.Instant
        && e.Obs.Span.phase = Obs.Span.Decide
        && e.Obs.Span.note = "commit"
        && e.Obs.Span.site = e.Obs.Span.origin
      then Some (e.Obs.Span.origin, e.Obs.Span.local)
      else None)
    events

let first_index p l =
  let rec go i = function
    | [] -> None
    | x :: tl -> if p x then Some i else go (i + 1) tl
  in
  go 0 l

let test_span_sequence proto () =
  let r = traced_run proto in
  let events = Obs.Recorder.events r.R.recorder in
  check_bool "run produced span events" true (events <> []);
  (match Obs.Export.validate events with
  | Ok () -> ()
  | Error e ->
      Alcotest.fail (Printf.sprintf "%s: invalid trace: %s" r.R.protocol_name e));
  let begins = origin_begin_phases events in
  let committed = committed_updates events in
  check_bool "some transactions committed" true (committed <> []);
  let locking = proto <> Repdb.Protocol.Atomic in
  List.iter
    (fun (key, phases) ->
      (* the atomic protocol's optimistic reads never wait for locks and
         it decides at total-order delivery: no lock-wait, no vote phase *)
      if not locking then
        check_bool "atomic opens only broadcast spans" true
          (List.for_all (fun p -> p = Obs.Span.Broadcast) phases);
      if List.mem key committed && List.mem Obs.Span.Broadcast phases then
        if locking then begin
          (* a committed update went through the full origin-side
             pipeline, in commit-path order *)
          let pos p = first_index (( = ) p) phases in
          check_bool "lock-wait precedes broadcast" true
            (match (pos Obs.Span.Lock_wait, pos Obs.Span.Broadcast) with
            | Some lw, Some b -> lw < b
            | _ -> false);
          check_bool "broadcast precedes vote/ack collection" true
            (match (pos Obs.Span.Broadcast, pos Obs.Span.Vote_collect) with
            | Some b, Some v -> b < v
            | _ -> false)
        end)
    begins;
  (* replication lag is measurable: origin decide -> last replica apply *)
  let stats = Obs.Span_stats.of_events events in
  check_bool "decide->apply lag measured" true
    (Stats.Summary.count stats.Obs.Span_stats.decide_to_apply > 0)

(* ---------------------------------------------------------------- *)
(* Determinism under the domain pool                                *)
(* ---------------------------------------------------------------- *)

(* Each run's probe totals and spans, rendered inside the worker that ran
   it: [gc_minor_words] reads the calling domain's allocation counter. *)
let render_traced_suite () =
  let render p =
    let r =
      R.run
        (R.spec ~n_sites:3 ~txns_per_site:15 ~seed:5 ~collect_spans:true
           ~sample_every:(Sim.Time.of_ms 1) p)
    in
    let totals =
      List.map
        (fun ((name, labels), v) ->
          Printf.sprintf "%s %s{%s} %s" (Repdb.Protocol.name p) name
            (String.concat ","
               (List.map (fun (k, v) -> k ^ "=" ^ v) labels))
            (Obs.Export.float_repr v))
        (Obs.Sampler.final_values r.R.sampler)
    in
    let spans =
      List.map
        (Format.asprintf "%a" Obs.Span.pp)
        (Obs.Recorder.events r.R.recorder)
    in
    String.concat "\n" (totals @ spans)
  in
  String.concat "\n====\n" (Parallel.map Repdb.Protocol.all ~f:render)

let test_merged_totals_identical_across_pool_sizes () =
  let one = with_jobs 1 render_traced_suite in
  let eight = with_jobs 8 render_traced_suite in
  check_string "jobs=1 and jobs=8 render identical totals and spans" one
    eight

(* ---------------------------------------------------------------- *)
(* Exporters                                                        *)
(* ---------------------------------------------------------------- *)

let small_trace () =
  let r = Obs.Recorder.create () in
  Obs.Recorder.submit r ~at:(t_us 1) ~site:0 ~origin:0 ~local:1;
  Obs.Recorder.phase_begin r ~at:(t_us 2) ~site:0 ~origin:0 ~local:1
    Obs.Span.Broadcast;
  Obs.Recorder.decide r ~at:(t_us 9) ~site:0 ~origin:0 ~local:1 ~committed:true;
  Obs.Recorder.apply r ~at:(t_us 9) ~site:1 ~origin:0 ~local:1;
  Obs.Recorder.events r

let test_chrome_trace_shape () =
  let events = small_trace () in
  let json = Obs.Export.chrome_trace events in
  check_bool "is a traceEvents object" true (contains json "\"traceEvents\"");
  check_int "balanced B/E pairs"
    (count_sub json "\"ph\":\"B\"")
    (count_sub json "\"ph\":\"E\"")

(* Any finite float, integral or not, subnormal or huge, reads back as
   itself from its JSON number. *)
let prop_json_float_round_trips =
  QCheck.Test.make ~count:2000 ~name:"json_float reads back exactly"
    QCheck.(
      make ~print:(Printf.sprintf "%h")
        Gen.(
          oneof
            [ map Int64.float_of_bits ui64; map float_of_int int; float ]))
    (fun f ->
      QCheck.assume (Float.is_finite f);
      float_of_string (Obs.Export.json_float f) = f)

let test_jsonl_merges_extra_lines () =
  (* extra streams (the audit log's lines) merge into the span stream by
     timestamp; at a tie span lines come first, and each stream keeps its
     own order *)
  let events = small_trace () in
  let lines s = String.split_on_char '\n' (String.trim s) in
  let spans = lines (Obs.Export.jsonl events) in
  check_int "one line per span event" (List.length events) (List.length spans);
  check_bool "span lines tagged" true
    (List.for_all (fun l -> contains l "\"stream\":\"span\"") spans);
  let audit n = Printf.sprintf "{\"stream\":\"audit\",\"n\":%d}" n in
  let last =
    List.fold_left (fun m e -> max m (Sim.Time.to_us e.Obs.Span.at)) 0 events
  in
  let extra =
    [ (0, audit 0); (last, audit 1); (last, audit 2); (last + 1, audit 3) ]
  in
  Alcotest.(check (list string))
    "merged by timestamp"
    ((audit 0 :: spans) @ [ audit 1; audit 2; audit 3 ])
    (lines (Obs.Export.jsonl ~extra events))

(* ---------------------------------------------------------------- *)
(* Satellite: categorized drop accounting                           *)
(* ---------------------------------------------------------------- *)

let test_drops_by_category () =
  let s = Net.Net_stats.create () in
  Net.Net_stats.record_drop s ~category:"crash";
  Net.Net_stats.record_drop s ~category:"partition";
  Net.Net_stats.record_drop s ~category:"crash";
  let drops = List.sort compare (Net.Net_stats.drops_by_category s) in
  Alcotest.(check (list (pair string int)))
    "per-category drop counts"
    [ ("crash", 2); ("partition", 1) ]
    drops

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "obs"
    [
      ( "span stats",
        [
          tc "bucket edges are deterministic" `Quick
            test_percentile_bucket_edges;
          tc "percentile is nearest-rank on buckets" `Quick
            test_percentile_nearest_rank;
          QCheck_alcotest.to_alcotest prop_matches_hist_reference;
        ] );
      ( "spans",
        [
          tc "recorder balances by construction" `Quick
            test_recorder_balances_by_construction;
          tc "validate rejects malformed traces" `Quick
            test_export_validate_rejects_malformed;
          tc "baseline phase sequence" `Slow
            (test_span_sequence Repdb.Protocol.Baseline);
          tc "reliable phase sequence" `Slow
            (test_span_sequence Repdb.Protocol.Reliable);
          tc "causal phase sequence" `Slow
            (test_span_sequence Repdb.Protocol.Causal);
          tc "atomic phase sequence" `Slow
            (test_span_sequence Repdb.Protocol.Atomic);
        ] );
      ( "determinism",
        [
          tc "probe totals and spans byte-identical at jobs 1 vs 8" `Slow
            test_merged_totals_identical_across_pool_sizes;
        ] );
      ( "export",
        [
          tc "chrome trace shape" `Quick test_chrome_trace_shape;
          tc "jsonl merges extra lines by timestamp" `Quick
            test_jsonl_merges_extra_lines;
          QCheck_alcotest.to_alcotest prop_json_float_round_trips;
        ] );
      ( "net", [ tc "drops by category" `Quick test_drops_by_category ] );
    ]
