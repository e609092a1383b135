(* Test oracle: the lock manager on polymorphic hash tables — the key table
   a [(key, entry) Hashtbl.t] and each transaction's keys in a
   [Txn_id.Tbl] — kept verbatim as the differential-test oracle for
   [Db.Lock_manager] (see the property in test_db.ml). *)

module Txn_id = Db.Txn_id

type key = int
type mode = Db.Lock_manager.mode = Shared | Exclusive
type policy = Db.Lock_manager.policy = Wait | No_wait
type decision = Db.Lock_manager.decision = Granted | Queued | Refused

type entry = {
  mutable holders : (Txn_id.t * mode) list;  (* unordered *)
  mutable queue : (Txn_id.t * mode) list;  (* FIFO: head is next *)
}

type t = {
  policy : policy;
  on_grant : Txn_id.t -> key -> mode -> unit;
  table : (key, entry) Hashtbl.t;
  by_txn : key list ref Txn_id.Tbl.t;  (* keys a txn holds or waits on *)
  mutable granted : int;
  mutable queued : int;
  mutable refused : int;
}

let create ~policy ~on_grant () =
  {
    policy;
    on_grant;
    table = Hashtbl.create 64;
    by_txn = Txn_id.Tbl.create 64;
    granted = 0;
    queued = 0;
    refused = 0;
  }

let entry t k =
  match Hashtbl.find_opt t.table k with
  | Some e -> e
  | None ->
    let e = { holders = []; queue = [] } in
    Hashtbl.add t.table k e;
    e

let track t txn k =
  match Txn_id.Tbl.find_opt t.by_txn txn with
  | Some keys -> if not (List.mem k !keys) then keys := k :: !keys
  | None -> Txn_id.Tbl.add t.by_txn txn (ref [ k ])

let compatible a b =
  match a, b with Shared, Shared -> true | _, _ -> false

let holder_mode e txn =
  List.find_map
    (fun (id, m) -> if Txn_id.equal id txn then Some m else None)
    e.holders

(* Can a request by [txn] with [mode] be granted immediately given the
   current holders (ignoring the queue)? *)
let holders_allow e txn mode =
  List.for_all
    (fun (id, m) -> Txn_id.equal id txn || compatible mode m)
    e.holders

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
    let queued_mode =
      List.find_map
        (fun (id, m) -> if Txn_id.equal id txn then Some m else None)
        e.queue
    in
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
    let immediate = holders_allow e txn mode && e.queue = [] in
    if immediate then begin
      (match held with
      | Some Shared ->
        (* upgrade: replace the shared holding *)
        e.holders <-
          (txn, Exclusive)
          :: List.filter (fun (id, _) -> not (Txn_id.equal id txn)) e.holders
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
      let can_grant =
        List.for_all
          (fun (id, m) -> Txn_id.equal id txn || compatible mode m)
          e.holders
      in
      if can_grant then begin
        e.queue <- rest;
        (* The queued request may be an upgrade: drop any shared holding. *)
        e.holders <-
          (txn, mode)
          :: List.filter (fun (id, _) -> not (Txn_id.equal id txn)) e.holders;
        grants := (txn, mode) :: !grants;
        loop ()
      end
  in
  loop ();
  List.rev !grants

let release_all t txn =
  match Txn_id.Tbl.find_opt t.by_txn txn with
  | None -> ()
  | Some keys ->
    Txn_id.Tbl.remove t.by_txn txn;
    let fired = ref [] in
    List.iter
      (fun k ->
        match Hashtbl.find_opt t.table k with
        | None -> ()
        | Some e ->
          let not_txn (id, _) = not (Txn_id.equal id txn) in
          e.holders <- List.filter not_txn e.holders;
          e.queue <- List.filter not_txn e.queue;
          List.iter
            (fun (id, mode) -> fired := (id, k, mode) :: !fired)
            (promote e))
      !keys;
    List.iter
      (fun (id, k, mode) ->
        t.granted <- t.granted + 1;
        track t id k;
        t.on_grant id k mode)
      (List.rev !fired)

let clear t =
  Hashtbl.reset t.table;
  Txn_id.Tbl.reset t.by_txn

let holds t ~txn k mode =
  match Hashtbl.find_opt t.table k with
  | None -> false
  | Some e -> begin
    match holder_mode e txn with
    | Some Exclusive -> true
    | Some Shared -> mode = Shared
    | None -> false
  end

let held_keys t txn =
  match Txn_id.Tbl.find_opt t.by_txn txn with
  | None -> []
  | Some keys ->
    List.filter_map
      (fun k ->
        match Hashtbl.find_opt t.table k with
        | None -> None
        | Some e -> Option.map (fun m -> (k, m)) (holder_mode e txn))
      !keys

let holders t k =
  match Hashtbl.find_opt t.table k with Some e -> e.holders | None -> []

let waiters t k =
  match Hashtbl.find_opt t.table k with Some e -> e.queue | None -> []

(* Telemetry probes: a scan over the touched keys is fine on a sampling
   tick (never called from the acquire/release path). *)
let held_total t =
  Hashtbl.fold (fun _ e acc -> acc + List.length e.holders) t.table 0

let waiting_total t =
  Hashtbl.fold (fun _ e acc -> acc + List.length e.queue) t.table 0

let decisions t = function
  | Granted -> t.granted
  | Queued -> t.queued
  | Refused -> t.refused

let waits_for_edges t =
  Hashtbl.fold
    (fun _ e acc ->
      let rec walk ahead acc = function
        | [] -> acc
        | (waiter, mode) :: rest ->
          let blockers =
            List.filter
              (fun (id, m) ->
                (not (Txn_id.equal id waiter)) && not (compatible mode m))
              (e.holders @ ahead)
          in
          let acc =
            List.fold_left (fun acc (b, _) -> (waiter, b) :: acc) acc blockers
          in
          walk (ahead @ [ (waiter, mode) ]) acc rest
      in
      walk [] acc e.queue)
    t.table []

let active_txns t =
  Txn_id.Tbl.fold (fun txn _ acc -> txn :: acc) t.by_txn []
