type t = {
  lock_wait : Stats.Summary.t;
  broadcast : Stats.Summary.t;
  vote_collect : Stats.Summary.t;
  decide_to_apply : Stats.Summary.t;
}

let ms_between a b = Sim.Time.to_ms (Sim.Time.diff b a)

let of_events events =
  let stats =
    {
      lock_wait = Stats.Summary.create ();
      broadcast = Stats.Summary.create ();
      vote_collect = Stats.Summary.create ();
      decide_to_apply = Stats.Summary.create ();
    }
  in
  let open_spans = Hashtbl.create 256 in
  (* per transaction: origin-side commit decide time, latest apply time *)
  let decided = Hashtbl.create 256 in
  let last_apply = Hashtbl.create 256 in
  List.iter
    (fun (e : Span.event) ->
      let key = (e.Span.origin, e.Span.local, e.Span.site) in
      match e.Span.kind with
      | Span.Begin -> Hashtbl.replace open_spans key e.Span.at
      | Span.End -> begin
        match Hashtbl.find_opt open_spans key with
        | Some started ->
          Hashtbl.remove open_spans key;
          if e.Span.note <> "dangling" then begin
            let ms = ms_between started e.Span.at in
            match e.Span.phase with
            | Span.Lock_wait -> Stats.Summary.add stats.lock_wait ms
            | Span.Broadcast -> Stats.Summary.add stats.broadcast ms
            | Span.Vote_collect -> Stats.Summary.add stats.vote_collect ms
            | Span.Submit | Span.Decide | Span.Apply -> ()
          end
        | None -> ()
      end
      | Span.Instant -> begin
        let txn = (e.Span.origin, e.Span.local) in
        match e.Span.phase with
        | Span.Decide
          when e.Span.note = "commit" && e.Span.site = e.Span.origin ->
          Hashtbl.replace decided txn e.Span.at
        | Span.Apply -> begin
          match Hashtbl.find_opt last_apply txn with
          | Some at when Sim.Time.( <= ) e.Span.at at -> ()
          | Some _ | None -> Hashtbl.replace last_apply txn e.Span.at
        end
        | _ -> ()
      end)
    events;
  (* Fold in a sorted order so float accumulation in the summary's sum is
     independent of hash-table iteration order. *)
  Hashtbl.fold (fun txn at acc -> (txn, at) :: acc) decided []
  |> List.sort compare
  |> List.iter (fun (txn, decided_at) ->
         match Hashtbl.find_opt last_apply txn with
         | Some applied_at when Sim.Time.( <= ) decided_at applied_at ->
           Stats.Summary.add stats.decide_to_apply
             (ms_between decided_at applied_at)
         | Some _ | None -> ());
  stats

let named t =
  [
    ("lock-wait", t.lock_wait);
    ("broadcast", t.broadcast);
    ("vote/ack collect", t.vote_collect);
    ("decide->apply", t.decide_to_apply);
  ]

(* Upper edges of the reporting buckets: a 1-2-5 series in ms, 0.01 ms to
   10 s. *)
let bounds =
  [|
    0.01; 0.02; 0.05; 0.1; 0.2; 0.5; 1.0; 2.0; 5.0; 10.0; 20.0; 50.0; 100.0;
    200.0; 500.0; 1000.0; 2000.0; 5000.0; 10000.0;
  |]

let percentile s q =
  if q < 0.0 || q > 1.0 then invalid_arg "Span_stats.percentile";
  let n = Stats.Summary.count s in
  if n = 0 then 0.0
  else
    let rank = Stdlib.max 1 (int_of_float (ceil (q *. float_of_int n))) in
    let x = Stats.Summary.nth_smallest s rank in
    match Array.find_opt (fun b -> x <= b) bounds with
    | Some b -> b
    | None -> Stats.Summary.max s
