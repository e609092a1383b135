type episode =
  | Outage of { site : Net.Site_id.t; at : Sim.Time.t; duration : Sim.Time.t }
  | Cut of {
      group : Net.Site_id.t list;
      at : Sim.Time.t;
      duration : Sim.Time.t;
    }
  | Loss_burst of { pct : int; at : Sim.Time.t; duration : Sim.Time.t }

type t = episode list

(* ------------------------------------------------------------------ *)
(* The chaos timing profile.

   The membership layer tolerates message loss only in conjunction with a
   view change (view synchrony: a removed member's stream is flushed and
   fast-forwarded; a rejoiner gets a snapshot). An outage or partition that
   ends before the failure detector fires is silent message loss with no
   view change — outside the paper's failure model ("failures are detected
   by timeout") and outside what any view-synchronous stack promises. The
   generator therefore keeps every crash/cut window longer than the
   detection bound, and runs the group on a fast detector so those windows
   stay short in absolute terms.

   The ARQ retransmission timeout is kept far below the suspicion timeout
   so that even a 30% loss burst cannot delay heartbeats long enough to
   cause a false suspicion (that would need ~12 consecutive drops). *)

let hb_interval = Sim.Time.of_ms 15
let suspect_after = Sim.Time.of_ms 60
let arq_rto = Sim.Time.of_ms 5

let min_fault_duration = function
  (* >= suspicion timeout + detector tick + scheduling slack, so the fault
     is detected (and the view changes) before it ends *)
  | Outage _ | Cut _ -> Sim.Time.of_ms 150
  | Loss_burst _ -> Sim.Time.of_ms 50 (* ARQ repairs loss; any length safe *)

(* Rejoin tail after a heal: crash the stale minority member, wait for the
   majority to remove it (detect_bound after the crash), then recover it
   into the join protocol. *)
let rejoin_crash_after = Sim.Time.of_ms 30
let rejoin_recover_after = Sim.Time.of_ms 180

(* Stabilization gap before the next episode may start: the previous
   episode's recovery (view change + join + snapshot) must have settled. *)
let settle_tail = function
  | Outage _ -> Sim.Time.of_ms 300
  | Cut _ -> Sim.Time.of_ms 500 (* heal + rejoin crash/recover + join *)
  | Loss_burst _ -> Sim.Time.of_ms 100

let episode_window = function
  | Outage { at; duration; _ }
  | Cut { at; duration; _ }
  | Loss_burst { at; duration; _ } ->
    (at, Sim.Time.add at duration)

let events plan =
  let compile = function
    | Outage { site; at; duration } ->
      [ (at, Exper.Runner.Crash site);
        (Sim.Time.add at duration, Exper.Runner.Recover site) ]
    | Cut { group; at; duration } ->
      let heal_at = Sim.Time.add at duration in
      (* Minority members are stale after the heal (messages across the cut
         are gone for good); bring each back through the join protocol the
         same way a crashed site rejoins. *)
      [ (at, Exper.Runner.Partition group); (heal_at, Exper.Runner.Heal) ]
      @ List.concat_map
          (fun site ->
            [ (Sim.Time.add heal_at rejoin_crash_after,
               Exper.Runner.Crash site);
              (Sim.Time.add heal_at rejoin_recover_after,
               Exper.Runner.Recover site) ])
          group
    | Loss_burst { pct; at; duration } ->
      [ (at,
         Exper.Runner.Set_loss
           (Some
              {
                Net.Network.drop_probability = float_of_int pct /. 100.0;
                rto = arq_rto;
              }));
        (Sim.Time.add at duration, Exper.Runner.Set_loss None) ]
  in
  (* Stable sort: same-instant events keep compilation order, so a plan
     compiles to one deterministic schedule. *)
  List.stable_sort
    (fun (a, _) (b, _) -> Sim.Time.compare a b)
    (List.concat_map compile plan)

let end_time plan =
  List.fold_left
    (fun acc (time, _) -> Sim.Time.max acc time)
    Sim.Time.zero (events plan)

(* ------------------------------------------------------------------ *)
(* Generation *)

let generate ~rng ~n_sites ~max_episodes =
  if n_sites < 3 then invalid_arg "Fault_plan.generate: need >= 3 sites";
  let minority_max = (n_sites - 1) / 2 in
  let n_episodes = Sim.Rng.uniform_int rng ~lo:1 ~hi:(max 1 max_episodes) in
  let cursor = ref (Sim.Time.of_ms 50) in
  List.init n_episodes (fun _ ->
      let at =
        Sim.Time.add !cursor (Sim.Time.of_ms (Sim.Rng.int rng 250))
      in
      let extra = Sim.Time.of_ms (Sim.Rng.int rng 300) in
      let episode =
        match Sim.Rng.int rng 4 with
        | 0 | 1 ->
          (* weighted toward plain site outages, the paper's failure model *)
          let site = Sim.Rng.int rng n_sites in
          Outage { site; at; duration = Sim.Time.zero }
        | 2 ->
          let size = Sim.Rng.uniform_int rng ~lo:1 ~hi:minority_max in
          let rec pick acc =
            if List.length acc = size then List.sort Int.compare acc
            else
              let s = Sim.Rng.int rng n_sites in
              if List.mem s acc then pick acc else pick (s :: acc)
          in
          Cut { group = pick []; at; duration = Sim.Time.zero }
        | _ ->
          let pct = Sim.Rng.uniform_int rng ~lo:5 ~hi:30 in
          Loss_burst { pct; at; duration = Sim.Time.zero }
      in
      let duration = Sim.Time.add (min_fault_duration episode) extra in
      let episode =
        match episode with
        | Outage o -> Outage { o with duration }
        | Cut c -> Cut { c with duration }
        | Loss_burst l -> Loss_burst { l with duration }
      in
      cursor :=
        Sim.Time.add (Sim.Time.add at duration) (settle_tail episode);
      episode)

(* ------------------------------------------------------------------ *)
(* Shrinking *)

let halve_duration ep d =
  Sim.Time.max (min_fault_duration ep) (Sim.Time.of_us (Sim.Time.to_us d / 2))

let shrink_episode ep =
  let shorter duration mk =
    let d = halve_duration ep duration in
    if Sim.Time.( < ) d duration then [ mk d ] else []
  in
  match ep with
  | Outage o -> shorter o.duration (fun d -> Outage { o with duration = d })
  | Cut c ->
    (match c.group with
    | _ :: (_ :: _ as smaller) -> [ Cut { c with group = smaller } ]
    | _ -> [])
    @ shorter c.duration (fun d -> Cut { c with duration = d })
  | Loss_burst l ->
    shorter l.duration (fun d -> Loss_burst { l with duration = d })

let shrink_candidates plan =
  let n = List.length plan in
  let drop_range lo hi = List.filteri (fun i _ -> i < lo || hi <= i) plan in
  (* most aggressive first: halves, then single drops, then within-episode
     reductions (smaller cut groups, shorter windows) *)
  let halves =
    if n >= 2 then [ drop_range 0 (n / 2); drop_range (n / 2) n ] else []
  in
  let singles =
    if n >= 1 then List.init n (fun i -> drop_range i (i + 1)) else []
  in
  let reductions =
    List.concat
      (List.mapi
         (fun i ep ->
           List.map
             (fun ep' -> List.mapi (fun j e -> if i = j then ep' else e) plan)
             (shrink_episode ep))
         plan)
  in
  (* the singles path with n = 1 produces the empty plan — how a
     pure-concurrency bug shrinks to "no faults needed" *)
  halves @ singles @ reductions

(* ------------------------------------------------------------------ *)
(* Round-trip text form (times in integer microseconds — exact) *)

let string_of_episode = function
  | Outage { site; at; duration } ->
    Printf.sprintf "crash(%d)@%d+%d" site (Sim.Time.to_us at)
      (Sim.Time.to_us duration)
  | Cut { group; at; duration } ->
    Printf.sprintf "cut(%s)@%d+%d"
      (String.concat "|" (List.map string_of_int group))
      (Sim.Time.to_us at) (Sim.Time.to_us duration)
  | Loss_burst { pct; at; duration } ->
    Printf.sprintf "loss(%d%%)@%d+%d" pct (Sim.Time.to_us at)
      (Sim.Time.to_us duration)

let to_string = function
  | [] -> "none"
  | plan -> String.concat ";" (List.map string_of_episode plan)

let episode_of_string s =
  let fail () = Error (Printf.sprintf "bad episode %S" s) in
  match String.index_opt s '(' with
  | None -> fail ()
  | Some lp -> (
    let kind = String.sub s 0 lp in
    match String.index_from_opt s lp ')' with
    | None -> fail ()
    | Some rp -> (
      let arg = String.sub s (lp + 1) (rp - lp - 1) in
      let rest = String.sub s (rp + 1) (String.length s - rp - 1) in
      match String.split_on_char '@' rest with
      | [ ""; times ] -> (
        match String.split_on_char '+' times with
        | [ at_s; dur_s ] -> (
          match (int_of_string_opt at_s, int_of_string_opt dur_s) with
          | Some at_us, Some dur_us when at_us >= 0 && dur_us >= 0 -> (
            let at = Sim.Time.of_us at_us
            and duration = Sim.Time.of_us dur_us in
            match kind with
            | "crash" -> (
              match int_of_string_opt arg with
              | Some site when site >= 0 -> Ok (Outage { site; at; duration })
              | _ -> fail ())
            | "cut" -> (
              let members =
                List.map int_of_string_opt (String.split_on_char '|' arg)
              in
              if
                members <> []
                && List.for_all
                     (function Some s -> s >= 0 | None -> false)
                     members
              then
                Ok
                  (Cut
                     { group = List.filter_map Fun.id members; at; duration })
              else fail ())
            | "loss" -> (
              match String.index_opt arg '%' with
              | Some i when i = String.length arg - 1 -> (
                match int_of_string_opt (String.sub arg 0 i) with
                | Some pct when pct >= 0 && pct < 100 ->
                  Ok (Loss_burst { pct; at; duration })
                | _ -> fail ())
              | _ -> fail ())
            | _ -> fail ())
          | _ -> fail ())
        | _ -> fail ())
      | _ -> fail ()))

let of_string s =
  if s = "none" || s = "" then Ok []
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | e :: rest -> (
        match episode_of_string e with
        | Ok ep -> go (ep :: acc) rest
        | Error _ as err -> err)
    in
    go [] (String.split_on_char ';' s)

let pp ppf plan = Format.pp_print_string ppf (to_string plan)
