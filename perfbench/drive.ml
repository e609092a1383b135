(* Closed-loop load over the public protocol interface.

   This module owns the history, reads stores and counters straight from the
   protocol, and brackets the measurement window with counter snapshots, so
   every per-transaction figure is a delta across the window rather than a
   whole-run total. *)

module H = Verify.History

type mode = Untraced | Traced

(* What one episode measured. Everything but the wall-clock and GC fields
   is a pure function of the workload and seed. *)
type stats = {
  window_s : float;  (** simulated length of the measurement window *)
  submitted : int;  (** submitted inside the window *)
  failed : int;  (** of those, aborted or never decided *)
  undecided : int;  (** submitted at any time, never decided *)
  decided : int;  (** decided inside the window *)
  commits : int;  (** update transactions committed inside the window *)
  ro_commits : int;
  aborts : int array;  (** decided inside the window, by [all_reasons] *)
  upd_ms : float array;  (** sorted commit latencies, update transactions *)
  ro_ms : float array;  (** sorted, read-only transactions *)
  max_gap_ms : float;  (** longest stretch of the window with no commit *)
  events : int;  (** engine callbacks run inside the window *)
  datagrams : int;
  broadcasts : int;
  wall_window_s : float;
  minor_words : float;
  promoted_words : float;
  submit_ns : float;  (** wall time inside [submit], window only *)
  submit_calls : int;
  top_heap_words : int;
      (** at the end of the simulation; pooled, the first episode's, the
          only one that ran in a fresh heap *)
  first_submit_at : float;  (** Unix time of the first submit *)
}

(* The run's state, for verification and trace analysis. *)
type artifacts = {
  history : H.t;
  stores : (Net.Site_id.t * Db.Version_store.t) list;
  w_start : Sim.Time.t;
  w_end : Sim.Time.t;
  win_txns : (int * int) list;
      (** update transactions committed inside the window, (origin, local) *)
  recorder : Obs.Recorder.t;
  audit : Audit.Log.t;
  sampler : Obs.Sampler.t;
}

let all_reasons =
  H.[ Write_conflict; Certification; Deadlock_victim; View_change; Timeout ]

let reason_name = function
  | H.Write_conflict -> "write_conflict"
  | H.Certification -> "certification"
  | H.Deadlock_victim -> "deadlock_victim"
  | H.View_change -> "view_change"
  | H.Timeout -> "timeout"

let now_ns () = Int64.to_float (Monotonic_clock.now ())
let sample_every = Sim.Time.of_ms 10

let sorted_array l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of a sorted array; 0 when empty. *)
let percentile a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* Longest commit-free stretch of [\[w_start, w_end)], window edges
   included, from commit instants in any order. *)
let max_gap ~w_start ~w_end times =
  let times = List.sort Int.compare times in
  let last, gap =
    List.fold_left (fun (prev, g) t -> (t, max g (t - prev))) (w_start, 0) times
  in
  Sim.Time.to_ms (max gap (w_end - last))

(* The simulated outcome of an episode, which must repeat exactly for a
   given seed, and must not change when tracing is on. *)
let outcome s =
  ( (s.submitted, s.failed, s.undecided, s.decided, s.commits, s.ro_commits),
    (s.aborts, s.upd_ms, s.ro_ms, s.max_gap_ms),
    (s.datagrams, s.broadcasts) )

(* [outcome] plus engine events, which the sampler's ticks add to. *)
let signature s = (outcome s, s.events)

(* Episodes pooled: counts and times add up, latency samples merge; the
   process-level figures are the first episode's. *)
let combine = function
  | [] -> invalid_arg "Drive.combine: no episodes"
  | first :: _ as l ->
    let sum f = List.fold_left (fun acc s -> acc + f s) 0 l in
    let sumf f = List.fold_left (fun acc s -> acc +. f s) 0.0 l in
    let merge f = sorted_array (List.concat_map (fun s -> Array.to_list (f s)) l) in
    {
      window_s = sumf (fun s -> s.window_s);
      submitted = sum (fun s -> s.submitted);
      failed = sum (fun s -> s.failed);
      undecided = sum (fun s -> s.undecided);
      decided = sum (fun s -> s.decided);
      commits = sum (fun s -> s.commits);
      ro_commits = sum (fun s -> s.ro_commits);
      aborts =
        Array.mapi (fun i _ -> sum (fun s -> s.aborts.(i))) first.aborts;
      upd_ms = merge (fun s -> s.upd_ms);
      ro_ms = merge (fun s -> s.ro_ms);
      max_gap_ms = List.fold_left (fun acc s -> Float.max acc s.max_gap_ms) 0.0 l;
      events = sum (fun s -> s.events);
      datagrams = sum (fun s -> s.datagrams);
      broadcasts = sum (fun s -> s.broadcasts);
      wall_window_s = sumf (fun s -> s.wall_window_s);
      minor_words = sumf (fun s -> s.minor_words);
      promoted_words = sumf (fun s -> s.promoted_words);
      submit_ns = sumf (fun s -> s.submit_ns);
      submit_calls = sum (fun s -> s.submit_calls);
      top_heap_words = first.top_heap_words;
      first_submit_at = first.first_submit_at;
    }

exception Setup_done of float

(* One episode: warm-up, measurement window, then a drain. [setup_only]
   raises [Setup_done] with the time from [spawned_at] to the first
   submit. *)
let run ?(spawned_at = Unix.gettimeofday ()) ?(time_submits = false)
    ?(setup_only = false) ~(mode : mode) ~seed (w : Workloads.t) =
  let module P = (val Repdb.Protocol.get w.Workloads.protocol) in
  let n = w.config.Repdb.Config.n_sites in
  let engine = Sim.Engine.create ~seed () in
  let history = H.create () in
  let recorder, audit, sampler =
    match mode with
    | Untraced -> (Obs.Recorder.none, Audit.Log.none, Obs.Sampler.none)
    | Traced ->
      ( Obs.Recorder.create (),
        Audit.Log.create ~n,
        Obs.Sampler.create ~interval:sample_every () )
  in
  let config =
    { w.config with Repdb.Config.obs = recorder; audit; sampler }
  in
  let system = P.create engine config ~history in
  if Obs.Sampler.enabled sampler then begin
    Obs.Sampler.register sampler ~name:"sim_events_pending" (fun () ->
        float_of_int (Sim.Engine.pending engine));
    Obs.Sampler.attach sampler engine
  end;
  let w_start = w.warmup in
  let w_end = Sim.Time.add w_start w.window in
  let in_window at = w_start <= at && at < w_end in
  let submitted = ref 0 and win_committed = ref 0 and all_submitted = ref 0 in
  let all_decided = ref 0 and decided = ref 0 in
  let commits = ref 0 and ro_commits = ref 0 in
  let aborts = Array.make (List.length all_reasons) 0 in
  let upd_ms = ref [] and ro_ms = ref [] and commit_times = ref [] in
  let win_ids = ref [] in
  let submit_ns = ref 0.0 and submit_calls = ref 0 in
  let down = Array.make n false in
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  let gens = Array.init n (fun _ -> Workload.create w.profile ~rng) in
  let rec client site =
    let start = Sim.Engine.now engine in
    if start < w_end && not down.(site) then begin
      let op = Workload.next gens.(site) in
      let read_only = Repdb.Op.is_read_only op in
      let counted = in_window start in
      (* set once [submit] returns; read only after the run *)
      let id = ref None in
      incr all_submitted;
      if counted then incr submitted;
      let on_done outcome =
        let at = Sim.Engine.now engine in
        incr all_decided;
        if outcome = H.Committed && counted then incr win_committed;
        if in_window at then begin
          incr decided;
          let ms = Sim.Time.to_ms (Sim.Time.diff at start) in
          match outcome with
          | H.Committed when read_only ->
            incr ro_commits;
            ro_ms := ms :: !ro_ms
          | H.Committed ->
            incr commits;
            upd_ms := ms :: !upd_ms;
            commit_times := at :: !commit_times;
            win_ids := id :: !win_ids
          | H.Aborted reason ->
            let rec index i = function
              | r :: tl -> if r = reason then i else index (i + 1) tl
              | [] -> assert false
            in
            let i = index 0 all_reasons in
            aborts.(i) <- aborts.(i) + 1
        end;
        ignore
          (Sim.Engine.schedule engine ~delay:(Sim.Time.of_us 100) (fun () ->
               client site))
      in
      if time_submits && counted then begin
        let t0 = now_ns () in
        id := Some (P.submit system ~origin:site op ~on_done);
        submit_ns := !submit_ns +. (now_ns () -. t0);
        incr submit_calls
      end
      else id := Some (P.submit system ~origin:site op ~on_done)
    end
  in
  List.iter
    (fun (time, ev) ->
      ignore
        (Sim.Engine.schedule_at engine ~time (fun () ->
             match ev with
             | Workloads.Crash site ->
               down.(site) <- true;
               P.crash system site
             | Workloads.Recover site ->
               down.(site) <- false;
               P.recover system site;
               if List.mem site w.client_sites then
                 for _ = 1 to w.clients_per_site do
                   client site
                 done)))
    (w.events ~w_start ~w_end);
  let first_submit_at = ref 0.0 in
  List.iteri
    (fun i site ->
      for j = 1 to w.clients_per_site do
        client site;
        if i = 0 && j = 1 then begin
          first_submit_at := Unix.gettimeofday ();
          if setup_only then raise (Setup_done (!first_submit_at -. spawned_at))
        end
      done)
    w.client_sites;
  Sim.Engine.run_until engine w_start;
  let counters () =
    let net = P.net_stats system in
    let gc = Gc.quick_stat () in
    ( Sim.Engine.processed engine,
      Net.Net_stats.datagrams net,
      Net.Net_stats.broadcasts net,
      gc.Gc.minor_words,
      gc.Gc.promoted_words )
  in
  let ev0, dg0, bc0, mw0, pw0 = counters () in
  let t0 = Unix.gettimeofday () in
  Sim.Engine.run_until engine w_end;
  let t1 = Unix.gettimeofday () in
  let ev1, dg1, bc1, mw1, pw1 = counters () in
  (* Drain: stragglers decide, then a grace period lets every replica
     apply the tail (and a rejoining site finish its state transfer). *)
  let drain_limit = Sim.Time.add w_end (Sim.Time.of_sec 30.0) in
  let rec drain () =
    if !all_decided < !all_submitted && Sim.Engine.now engine < drain_limit
    then begin
      Sim.Engine.run_until engine
        (Sim.Time.add (Sim.Engine.now engine) (Sim.Time.of_ms 100));
      drain ()
    end
  in
  drain ();
  Sim.Engine.run_until engine
    (Sim.Time.add (Sim.Engine.now engine) (Sim.Time.of_sec 3.0));
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  Obs.Recorder.close_dangling recorder ~at:(Sim.Engine.now engine);
  ignore (Audit.Log.finalize audit);
  let stats =
    {
      window_s = Sim.Time.to_sec w.window;
      submitted = !submitted;
      failed = !submitted - !win_committed;
      undecided = !all_submitted - !all_decided;
      decided = !decided;
      commits = !commits;
      ro_commits = !ro_commits;
      aborts;
      upd_ms = sorted_array !upd_ms;
      ro_ms = sorted_array !ro_ms;
      max_gap_ms = max_gap ~w_start ~w_end !commit_times;
      events = ev1 - ev0;
      datagrams = dg1 - dg0;
      broadcasts = bc1 - bc0;
      wall_window_s = t1 -. t0;
      minor_words = mw1 -. mw0;
      promoted_words = pw1 -. pw0;
      submit_ns = !submit_ns;
      submit_calls = !submit_calls;
      top_heap_words;
      first_submit_at = !first_submit_at;
    }
  in
  let artifacts =
    {
      history;
      stores =
        List.filter_map
          (fun site ->
            if down.(site) then None else Some (site, P.store system site))
          (Net.Site_id.all ~n);
      w_start;
      w_end;
      win_txns =
        List.map
          (fun id ->
            let txn = Option.get !id in
            (txn.Db.Txn_id.origin, txn.Db.Txn_id.local))
          !win_ids;
      recorder;
      audit;
      sampler;
    }
  in
  (stats, artifacts)
