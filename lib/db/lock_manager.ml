type key = int
type mode = Shared | Exclusive
type policy = Wait | No_wait
type decision = Granted | Queued | Refused

type entry = {
  mutable holders : (Txn_id.t * mode) list;  (* unordered *)
  mutable queue : (Txn_id.t * mode) list;  (* FIFO: head is next *)
}

(* The keys a transaction holds or waits on, newest first. *)
type owned = { txn : Txn_id.t; mutable keys : key list }

(* The tables' "no entry" values; compared physically, never mutated. *)
let no_entry = { holders = []; queue = [] }
let no_keys = { txn = Txn_id.make ~origin:0 ~local:0; keys = [] }

type t = {
  policy : policy;
  on_grant : Txn_id.t -> key -> mode -> unit;
  table : entry Sim.Int_table.t;
  by_txn : owned Sim.Int_table.t;  (* keyed by [Txn_id.key] *)
  mutable granted : int;
  mutable queued : int;
  mutable refused : int;
}

let create ~policy ~on_grant () =
  {
    policy;
    on_grant;
    table = Sim.Int_table.create ~vacant:no_entry;
    by_txn = Sim.Int_table.create ~vacant:no_keys;
    granted = 0;
    queued = 0;
    refused = 0;
  }

let entry t k =
  let e = Sim.Int_table.find t.table k in
  if e != no_entry then e
  else begin
    let e = { holders = []; queue = [] } in
    Sim.Int_table.replace t.table k e;
    e
  end

let rec mem_key k = function
  | [] -> false
  | k' :: rest -> k' = k || mem_key k rest

let track t txn k =
  let o = Sim.Int_table.find t.by_txn (Txn_id.key txn) in
  if o == no_keys then
    Sim.Int_table.replace t.by_txn (Txn_id.key txn) { txn; keys = [ k ] }
  else if not (mem_key k o.keys) then o.keys <- k :: o.keys

let compatible a b =
  match a, b with Shared, Shared -> true | _, _ -> false

let rec mode_of txn = function
  | [] -> None
  | (id, m) :: rest -> if Txn_id.equal id txn then Some m else mode_of txn rest

let holder_mode e txn = mode_of txn e.holders

let without txn l = List.filter (fun (id, _) -> not (Txn_id.equal id txn)) l

(* Can a request by [txn] with [mode] be granted immediately given the
   current holders (ignoring the queue)? *)
let holders_allow e txn mode =
  List.for_all (fun (id, m) -> Txn_id.equal id txn || compatible mode m) e.holders

let acquire_decide t ~txn k mode =
  let e = entry t k in
  match holder_mode e txn with
  | Some Exclusive -> Granted
  | Some Shared when mode = Shared -> Granted
  | held -> begin
    (* A transaction keeps at most one queue entry per key: re-requesting
       while queued is answered from the pending entry (escalating it in
       place for a Shared->Exclusive change) rather than appending a
       duplicate, which would otherwise leave a stale entry queued after the
       first one is promoted. *)
    let queued_mode = mode_of txn e.queue in
    match queued_mode with
    | Some Exclusive -> Queued
    | Some Shared when mode = Shared -> Queued
    | Some Shared -> begin
      match t.policy with
      | No_wait -> Refused
      | Wait ->
        e.queue <-
          List.map
            (fun (id, m) ->
              if Txn_id.equal id txn then (id, Exclusive) else (id, m))
            e.queue;
        Queued
    end
    | None ->
    (* New request, or a Shared->Exclusive upgrade. Strict FIFO: the queue
       must be empty for an immediate grant, so nobody overtakes. *)
    let immediate = e.queue == [] && holders_allow e txn mode in
    if immediate then begin
      (match held with
      | Some Shared ->
        (* upgrade: replace the shared holding *)
        e.holders <- (txn, Exclusive) :: without txn e.holders
      | Some Exclusive -> assert false
      | None -> e.holders <- (txn, mode) :: e.holders);
      track t txn k;
      Granted
    end
    else begin
      match mode, t.policy with
      | Exclusive, No_wait -> Refused
      | Exclusive, Wait | Shared, _ ->
        e.queue <- e.queue @ [ (txn, mode) ];
        track t txn k;
        Queued
    end
  end

let acquire t ~txn k mode =
  let decision = acquire_decide t ~txn k mode in
  (match decision with
  | Granted -> t.granted <- t.granted + 1
  | Queued -> t.queued <- t.queued + 1
  | Refused -> t.refused <- t.refused + 1);
  decision

(* Promote queued requests after holders changed. Returns grants to fire
   after the table is consistent. *)
let promote e =
  let grants = ref [] in
  let rec loop () =
    match e.queue with
    | [] -> ()
    | (txn, mode) :: rest ->
      let can_grant = holders_allow e txn mode in
      if can_grant then begin
        e.queue <- rest;
        (* The queued request may be an upgrade: drop any shared holding. *)
        e.holders <- (txn, mode) :: without txn e.holders;
        grants := (txn, mode) :: !grants;
        loop ()
      end
  in
  loop ();
  List.rev !grants

let release_all t txn =
  let o = Sim.Int_table.find t.by_txn (Txn_id.key txn) in
  if o != no_keys then begin
    Sim.Int_table.remove t.by_txn (Txn_id.key txn);
    let fired = ref [] in
    List.iter
      (fun k ->
        let e = Sim.Int_table.find t.table k in
        if e != no_entry then begin
          e.holders <- without txn e.holders;
          e.queue <- without txn e.queue;
          List.iter
            (fun (id, mode) -> fired := (id, k, mode) :: !fired)
            (promote e)
        end)
      o.keys;
    List.iter
      (fun (id, k, mode) ->
        t.granted <- t.granted + 1;
        track t id k;
        t.on_grant id k mode)
      (List.rev !fired)
  end

let clear t =
  Sim.Int_table.clear t.table;
  Sim.Int_table.clear t.by_txn

(* [no_entry] answers for an untouched key: no holders, no queue. *)
let holds t ~txn k mode =
  match holder_mode (Sim.Int_table.find t.table k) txn with
  | Some Exclusive -> true
  | Some Shared -> mode = Shared
  | None -> false

let held_keys t txn =
  List.filter_map
    (fun k -> Option.map (fun m -> (k, m)) (holder_mode (Sim.Int_table.find t.table k) txn))
    (Sim.Int_table.find t.by_txn (Txn_id.key txn)).keys

let holders t k = (Sim.Int_table.find t.table k).holders
let waiters t k = (Sim.Int_table.find t.table k).queue

(* Telemetry probes: a scan over the touched keys is fine on a sampling
   tick (never called from the acquire/release path). *)
let held_total t =
  Sim.Int_table.fold (fun _ e acc -> acc + List.length e.holders) t.table 0

let waiting_total t =
  Sim.Int_table.fold (fun _ e acc -> acc + List.length e.queue) t.table 0

let decisions t = function
  | Granted -> t.granted
  | Queued -> t.queued
  | Refused -> t.refused

let waits_for_edges t =
  Sim.Int_table.fold
    (fun _ e acc ->
      let rec walk ahead acc = function
        | [] -> acc
        | (waiter, mode) :: rest ->
          let blockers =
            List.filter
              (fun (id, m) -> (not (Txn_id.equal id waiter)) && not (compatible mode m))
              (e.holders @ ahead)
          in
          let acc =
            List.fold_left (fun acc (b, _) -> (waiter, b) :: acc) acc blockers
          in
          walk (ahead @ [ (waiter, mode) ]) acc rest
      in
      walk [] acc e.queue)
    t.table []

let active_txns t = Sim.Int_table.fold (fun _ o acc -> o.txn :: acc) t.by_txn []
