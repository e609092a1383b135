type seg =
  | Local
  | Lock_wait
  | Batch_wait
  | Nic_serialize
  | Link_latency
  | Ordering_wait
  | Timer_wait
  | Delivery
  | Unattributed

let seg_name = function
  | Local -> "local"
  | Lock_wait -> "lock-wait"
  | Batch_wait -> "batch-wait"
  | Nic_serialize -> "nic-serialize"
  | Link_latency -> "link-latency"
  | Ordering_wait -> "ordering-wait"
  | Timer_wait -> "timer-wait"
  | Delivery -> "delivery"
  | Unattributed -> "unattributed"

let all_segs =
  [ Local; Lock_wait; Batch_wait; Nic_serialize; Link_latency; Ordering_wait;
    Timer_wait; Delivery; Unattributed ]

type segment = {
  sg_seg : seg;
  sg_site : int;
  sg_from_us : int;
  sg_to_us : int;
  sg_note : string;
}

type path = {
  p_origin : int;
  p_local : int;
  p_submit_us : int;
  p_decide_us : int;
  p_segments : segment list;
  p_residual_us : int;
  p_rounds : int;
  p_hops : int;
}

let latency_us p = p.p_decide_us - p.p_submit_us

(* ------------------------------------------------------------------ *)
(* Audit-stream indexes. The log is in emission order, which is also
   non-decreasing simulator time, so per-site delivery arrays support
   binary search by (time, log index). *)

type drec = {
  d_idx : int;  (* position in the audit log *)
  d_at : int;
  d_site : int;
  d_msg : Audit.Event.msg;
  d_t_sent : int option;
  d_t_depart : int option;
  d_t_arrive : int option;
}

type srec = { s_idx : int; s_at : int; s_txn : (int * int) option }

let cls_rank = function Audit.Event.R -> 0 | Audit.Event.C -> 1 | T -> 2

let msg_key (m : Audit.Event.msg) =
  (cls_rank m.Audit.Event.cls, m.Audit.Event.origin, m.Audit.Event.seq)

type index = {
  ix_sends : (int * int * int, srec) Hashtbl.t;
  ix_dels : (int, drec array) Hashtbl.t;  (* site -> log-ordered *)
}

let build_index audit =
  let sends = Hashtbl.create 1024 in
  let dels = Hashtbl.create 16 in
  let us = Sim.Time.to_us in
  List.iteri
    (fun idx ev ->
      match ev with
      | Audit.Event.Send { at; msg; txn; _ } ->
        let key = msg_key msg in
        (* retransmissions after a rejoin re-send under the same id; the
           first send is the one the original datagram left from *)
        if not (Hashtbl.mem sends key) then
          Hashtbl.replace sends key { s_idx = idx; s_at = us at; s_txn = txn }
      | Audit.Event.Deliver
          { at; site; msg; t_sent; t_depart; t_arrive; _ } ->
        let d =
          {
            d_idx = idx;
            d_at = us at;
            d_site = site;
            d_msg = msg;
            d_t_sent = Option.map us t_sent;
            d_t_depart = Option.map us t_depart;
            d_t_arrive = Option.map us t_arrive;
          }
        in
        let prev =
          match Hashtbl.find_opt dels site with Some l -> l | None -> []
        in
        Hashtbl.replace dels site (d :: prev)
      | _ -> ())
    audit;
  let arrays = Hashtbl.create 16 in
  Hashtbl.iter
    (fun site l -> Hashtbl.replace arrays site (Array.of_list (List.rev l)))
    dels;
  { ix_sends = sends; ix_dels = arrays }

(* Rightmost delivery at [site] satisfying [pred], where [pred] holds on
   a prefix of the log-ordered array (time and index are both monotone). *)
let rightmost ix ~site ~pred =
  match Hashtbl.find_opt ix.ix_dels site with
  | None -> None
  | Some a ->
    let lo = ref (-1) and hi = ref (Array.length a) in
    (* invariant: pred a.(lo) (or lo = -1), not (pred a.(hi)) (or hi = len) *)
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if pred a.(mid) then lo := mid else hi := mid
    done;
    if !lo < 0 then None else Some a.(!lo)

(* The delivery whose handler issued the send at (site, ts, idx): latest
   same-site delivery at the same instant with a smaller log index (the
   log records a delivery before the callback that logs its sends). *)
let enclosing_delivery ix ~site ~ts ~idx =
  match
    rightmost ix ~site ~pred:(fun d -> d.d_at <= ts && d.d_idx < idx)
  with
  | Some d when d.d_at = ts -> Some d
  | _ -> None

let latest_delivery_before ix ~site ~ts =
  rightmost ix ~site ~pred:(fun d -> d.d_at < ts)

(* The delivery whose handler logged the decide at (origin, td). Several
   deliveries can share the decide instant (a frame, or constant-latency
   vote fan-in); prefer the last one the transaction's lineage tags — the
   vote/commit-request that actually completed the decision — falling
   back to the last overall. Same instant either way, so segment math is
   unaffected by the tie-break. *)
let decide_delivery ix ~site ~ts ~txn =
  let tagged d =
    match Hashtbl.find_opt ix.ix_sends (msg_key d.d_msg) with
    | Some s -> s.s_txn = Some txn
    | None -> false
  in
  match Hashtbl.find_opt ix.ix_dels site with
  | None -> None
  | Some a ->
    (* rightmost array position with d_at <= ts *)
    let lo = ref (-1) and hi = ref (Array.length a) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if a.(mid).d_at <= ts then lo := mid else hi := mid
    done;
    if !lo < 0 || a.(!lo).d_at <> ts then None
    else begin
      let last = a.(!lo) in
      let rec scan i =
        if i < 0 || a.(i).d_at <> ts then Some last
        else if tagged a.(i) then Some a.(i)
        else scan (i - 1)
      in
      scan !lo
    end

(* ------------------------------------------------------------------ *)
(* Span-stream index: submit/decide instants at the origin plus the
   lock-wait intervals there (recorder spans are balanced by
   construction, so Begin/End pair up in order). *)

type tinfo = {
  mutable ti_submit : int option;
  mutable ti_decide : int option;
  mutable ti_committed : bool;
  mutable ti_lock_open : int option;
  mutable ti_locks : (int * int) list;  (* reversed *)
}

let span_index spans =
  let txns = Hashtbl.create 256 in
  let order = ref [] in
  let info origin local =
    let key = (origin, local) in
    match Hashtbl.find_opt txns key with
    | Some i -> i
    | None ->
      let i =
        {
          ti_submit = None;
          ti_decide = None;
          ti_committed = false;
          ti_lock_open = None;
          ti_locks = [];
        }
      in
      Hashtbl.replace txns key i;
      order := key :: !order;
      i
  in
  List.iter
    (fun (e : Obs.Span.event) ->
      if e.Obs.Span.origin >= 0 && e.Obs.Span.site = e.Obs.Span.origin then begin
        let i = info e.Obs.Span.origin e.Obs.Span.local in
        let at = Sim.Time.to_us e.Obs.Span.at in
        match (e.Obs.Span.phase, e.Obs.Span.kind) with
        | Obs.Span.Submit, Obs.Span.Instant ->
          if i.ti_submit = None then i.ti_submit <- Some at
        | Obs.Span.Decide, Obs.Span.Instant ->
          if i.ti_decide = None then begin
            i.ti_decide <- Some at;
            i.ti_committed <- e.Obs.Span.note = "commit"
          end
        | Obs.Span.Lock_wait, Obs.Span.Begin -> i.ti_lock_open <- Some at
        | Obs.Span.Lock_wait, Obs.Span.End -> begin
          match i.ti_lock_open with
          | Some b ->
            i.ti_lock_open <- None;
            i.ti_locks <- (b, at) :: i.ti_locks
          | None -> ()
        end
        | _ -> ()
      end)
    spans;
  (txns, List.rev !order)

(* ------------------------------------------------------------------ *)
(* The backward walk. Every step moves to a strictly smaller audit log
   index — a send precedes its deliveries, an enclosing delivery precedes
   the send it encloses, and a timer bridge lands on a strictly earlier
   time — so the loop terminates without a fuel counter. *)

let walk ix ~origin ~local ~t0 ~td ~locks =
  let txn = (origin, local) in
  let segs = ref [] in
  let rounds = ref 0 and hops = ref 0 in
  let stop = ref false in
  (* prepend, clamping at the submit: anything earlier than [t0] predates
     the transaction and is not part of its latency *)
  let push sg site from_ to_ note =
    let from_ = if from_ < t0 then (stop := true; t0) else from_ in
    if to_ > from_ then
      segs :=
        { sg_seg = sg; sg_site = site; sg_from_us = from_; sg_to_us = to_;
          sg_note = note }
        :: !segs
  in
  let bridge_to_submit ts =
    (* the send (or a local decide) came out of submit processing at the
       origin: split [t0, ts] on the span stream's lock-wait interval *)
    match List.find_opt (fun (b, e) -> t0 <= b && e <= ts) (List.rev locks) with
    | Some (b, e) ->
      push Local origin e ts "protocol";
      push Lock_wait origin b e "";
      push Local origin t0 b "submit"
    | None -> push Local origin t0 ts "submit"
  in
  let rec from_delivery d =
    incr hops;
    match Hashtbl.find_opt ix.ix_sends (msg_key d.d_msg) with
    | None ->
      push Unattributed d.d_site t0 d.d_at "delivery without a send record";
      stop := true
    | Some s ->
      if s.s_txn = Some txn then incr rounds;
      let sender = d.d_msg.Audit.Event.origin in
      (match (d.d_t_sent, d.d_t_depart, d.d_t_arrive) with
      | Some t_sent, Some t_depart, Some t_arrive ->
        push Ordering_wait d.d_site t_arrive d.d_at "";
        if not !stop then push Link_latency d.d_site t_depart t_arrive "";
        if not !stop then push Nic_serialize sender t_sent t_depart "";
        if not !stop then push Batch_wait sender s.s_at t_sent ""
      | _ ->
        push Delivery d.d_site s.s_at d.d_at "no datagram timing");
      if not !stop then
        from_send ~site:sender ~ts:s.s_at ~idx:s.s_idx
          ~owned:(s.s_txn = Some txn)
  and from_send ~site ~ts ~idx ~owned =
    match enclosing_delivery ix ~site ~ts ~idx with
    | Some d -> from_delivery d
    | None ->
      if owned && site = origin then bridge_to_submit ts
      else begin
        (* nothing delivered at this instant: a timer fired (the causal
           protocol's idle acknowledgment) — bridge to the delivery that
           armed it *)
        match latest_delivery_before ix ~site ~ts with
        | Some d ->
          push Timer_wait site d.d_at ts "idle timer";
          if not !stop then from_delivery d
        | None ->
          push Unattributed site t0 ts "send with no visible cause";
          stop := true
      end
  in
  (match decide_delivery ix ~site:origin ~ts:td ~txn with
  | Some d -> from_delivery d
  | None ->
    (* no delivery at the decide instant: a local decision (read-only
       transaction, or an abort path) — the whole path is origin-local *)
    bridge_to_submit td);
  let residual =
    List.fold_left
      (fun acc s ->
        if s.sg_seg = Unattributed then acc + (s.sg_to_us - s.sg_from_us)
        else acc)
      0 !segs
  in
  {
    p_origin = origin;
    p_local = local;
    p_submit_us = t0;
    p_decide_us = td;
    p_segments = !segs;
    p_residual_us = residual;
    p_rounds = !rounds;
    p_hops = !hops;
  }

let explain ~spans ~audit =
  let ix = build_index audit in
  let txns, order = span_index spans in
  List.filter_map
    (fun (origin, local) ->
      let i = Hashtbl.find txns (origin, local) in
      match (i.ti_submit, i.ti_decide) with
      | Some t0, Some td when i.ti_committed && td >= t0 ->
        Some (walk ix ~origin ~local ~t0 ~td ~locks:(List.rev i.ti_locks))
      | _ -> None)
    (List.sort compare order)

(* ------------------------------------------------------------------ *)
(* Blame aggregation *)

type blame = {
  b_seg : seg;
  b_txns : int;
  b_total_us : int;
  b_mean_us : float;
  b_p50_us : int;
  b_p95_us : int;
  b_p99_us : int;
  b_share : float;
}

let seg_total p sg =
  List.fold_left
    (fun acc s ->
      if s.sg_seg = sg then acc + (s.sg_to_us - s.sg_from_us) else acc)
    0 p.p_segments

(* nearest-rank percentile over a sorted int array *)
let pctl sorted q =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let blame_table paths =
  match paths with
  | [] -> []
  | _ ->
    let n = List.length paths in
    let lat_sum =
      List.fold_left (fun acc p -> acc + latency_us p) 0 paths
    in
    List.map
      (fun sg ->
        let per = Array.of_list (List.map (fun p -> seg_total p sg) paths) in
        let total = Array.fold_left ( + ) 0 per in
        let nonzero =
          Array.fold_left (fun a v -> if v > 0 then a + 1 else a) 0 per
        in
        Array.sort compare per;
        {
          b_seg = sg;
          b_txns = nonzero;
          b_total_us = total;
          b_mean_us = float_of_int total /. float_of_int n;
          b_p50_us = pctl per 0.50;
          b_p95_us = pctl per 0.95;
          b_p99_us = pctl per 0.99;
          b_share =
            (if lat_sum = 0 then 0.0
             else float_of_int total /. float_of_int lat_sum);
        })
      all_segs

let top_slowest ?(k = 5) paths =
  let by_latency a b =
    let c = Int.compare (latency_us b) (latency_us a) in
    if c <> 0 then c else compare (a.p_origin, a.p_local) (b.p_origin, b.p_local)
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  take k (List.sort by_latency paths)

(* ------------------------------------------------------------------ *)
(* JSON report *)

let segment_json s =
  Printf.sprintf
    "{\"seg\":\"%s\",\"site\":%d,\"from_us\":%d,\"to_us\":%d,\"us\":%d%s}"
    (seg_name s.sg_seg) s.sg_site s.sg_from_us s.sg_to_us
    (s.sg_to_us - s.sg_from_us)
    (if s.sg_note = "" then ""
     else Printf.sprintf ",\"note\":\"%s\"" s.sg_note)

let path_json p =
  Printf.sprintf
    "{\"txn\":\"%d.%d\",\"submit_us\":%d,\"decide_us\":%d,\"latency_us\":%d,\"residual_us\":%d,\"rounds\":%d,\"hops\":%d,\"segments\":[%s]}"
    p.p_origin p.p_local p.p_submit_us p.p_decide_us (latency_us p)
    p.p_residual_us p.p_rounds p.p_hops
    (String.concat "," (List.map segment_json p.p_segments))

let blame_json b =
  Printf.sprintf
    "{\"seg\":\"%s\",\"txns\":%d,\"total_us\":%d,\"mean_us\":%.3f,\"p50_us\":%d,\"p95_us\":%d,\"p99_us\":%d,\"share\":%.6f}"
    (seg_name b.b_seg) b.b_txns b.b_total_us b.b_mean_us b.b_p50_us b.b_p95_us
    b.b_p99_us b.b_share

let to_json ?top paths =
  let rows =
    match top with None -> paths | Some k -> top_slowest ~k paths
  in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf
    (Printf.sprintf "{\"stream\":\"critpath\",\"schema\":1,\"n_txns\":%d,"
       (List.length paths));
  Buffer.add_string buf "\n\"blame\":[";
  List.iteri
    (fun i b ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n";
      Buffer.add_string buf (blame_json b))
    (blame_table paths);
  Buffer.add_string buf "\n],\n\"txns\":[";
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n";
      Buffer.add_string buf (path_json p))
    rows;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Perfetto flow arrows: one chain per transaction, a step wherever the
   path changes sites, ids/tids matching the span exporter's encoding so
   the arrows attach to the transaction's own slices. *)

let flow_objects p =
  let tid = (p.p_origin * 1_000_000) + p.p_local in
  let obj ph ~ts ~pid extra =
    Printf.sprintf
      "{\"name\":\"critpath\",\"cat\":\"critpath\",\"ph\":\"%s\",\"id\":%d,\"ts\":%d,\"pid\":%d,\"tid\":%d%s}"
      ph tid ts pid tid extra
  in
  let steps =
    let rec go prev_site = function
      | [] -> []
      | s :: tl ->
        if s.sg_site <> prev_site then
          obj "t" ~ts:s.sg_from_us ~pid:s.sg_site "" :: go s.sg_site tl
        else go prev_site tl
    in
    match p.p_segments with [] -> [] | first :: _ -> go first.sg_site p.p_segments
  in
  (obj "s" ~ts:p.p_submit_us ~pid:p.p_origin "" :: steps)
  @ [ obj "f" ~ts:p.p_decide_us ~pid:p.p_origin ",\"bp\":\"e\"" ]

(* ------------------------------------------------------------------ *)
(* Offline trace splitting *)

let contains_sub s sub =
  let ns = String.length s and nb = String.length sub in
  let rec go i = i + nb <= ns && (String.sub s i nb = sub || go (i + 1)) in
  nb > 0 && go 0

let phase_of_name = function
  | "submit" -> Some Obs.Span.Submit
  | "lock-wait" -> Some Obs.Span.Lock_wait
  | "broadcast" -> Some Obs.Span.Broadcast
  | "vote-collect" -> Some Obs.Span.Vote_collect
  | "decide" -> Some Obs.Span.Decide
  | "apply" -> Some Obs.Span.Apply
  | _ -> None

let kind_of_name = function
  | "B" -> Some Obs.Span.Begin
  | "E" -> Some Obs.Span.End
  | "i" -> Some Obs.Span.Instant
  | _ -> None

let span_of_line line =
  match Audit.Event.parse_flat line with
  | exception Audit.Event.Parse e -> Error e
  | fields -> (
    match
      let phase =
        match phase_of_name (Audit.Event.fstr fields "phase") with
        | Some p -> p
        | None -> raise (Audit.Event.Parse "unknown span phase")
      in
      let kind =
        match kind_of_name (Audit.Event.fstr fields "kind") with
        | Some k -> k
        | None -> raise (Audit.Event.Parse "unknown span kind")
      in
      let origin, local =
        match List.assoc_opt "txn" fields with
        | Some (Audit.Event.Jstr s) -> begin
          (* span txn ids render as "T<origin>.<local>" *)
          match String.split_on_char '.' s with
          | [ o; l ] -> begin
            let o =
              if String.length o > 0 && o.[0] = 'T' then
                String.sub o 1 (String.length o - 1)
              else o
            in
            match (int_of_string_opt o, int_of_string_opt l) with
            | Some o, Some l -> (o, l)
            | _ -> raise (Audit.Event.Parse "bad span txn id")
          end
          | _ -> raise (Audit.Event.Parse "bad span txn id")
        end
        | _ -> (-1, 0)
      in
      {
        Obs.Span.at = Sim.Time.of_us (Audit.Event.fint fields "ts_us");
        site = Audit.Event.fint fields "site";
        origin;
        local;
        phase;
        kind;
        note =
          (match List.assoc_opt "note" fields with
          | Some (Audit.Event.Jstr s) -> s
          | _ -> "");
      }
    with
    | e -> Ok e
    | exception Audit.Event.Parse e -> Error e)

let of_trace_lines lines =
  let spans = ref [] and audit = ref [] and n = ref None in
  let err = ref None in
  let fail line msg =
    if !err = None then
      err := Some (Printf.sprintf "%s: %s" msg line)
  in
  List.iter
    (fun line ->
      if !err = None && String.length line > 0 then
        if Audit.Event.is_schema_line line then begin
          match Audit.Event.parse_schema line with
          | Ok sites -> n := Some sites
          | Error e -> fail line e
        end
        else if Audit.Event.is_audit_line line then begin
          match Audit.Event.of_json line with
          | Ok ev -> audit := ev :: !audit
          | Error e -> fail line e
        end
        else if contains_sub line "\"stream\":\"span\"" then begin
          match span_of_line line with
          | Ok s -> spans := s :: !spans
          | Error e -> fail line e
        end)
    lines;
  match !err with
  | Some e -> Error e
  | None -> (
    match !n with
    | None ->
      Error
        "no audit schema line (record the run with --audit and a .jsonl \
         trace)"
    | Some sites -> Ok (sites, List.rev !spans, List.rev !audit))
