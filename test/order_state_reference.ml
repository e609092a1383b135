(* Test-only reference for [Broadcast.Order_state]: the original
   implementation on persistent maps and an arrival list, kept verbatim as
   the differential-test oracle. Its [drain] filters the whole arrival list
   once per delivered message, and [unordered_arrivals] reverses and
   filters it on every call, so each total-order delivery costs O(backlog);
   the library module must show exactly the same behaviour. *)

module Msg_id = Broadcast.Msg_id

module Int_map = Map.Make (Int)

type 'a ready = 'a Broadcast.Order_state.ready = {
  global_seq : int;
  id : Msg_id.t;
  payload : 'a;
}

type 'a t = {
  mutable assignment : int Msg_id.Map.t;  (* msg -> global seq *)
  mutable slot : Msg_id.t Int_map.t;  (* global seq -> msg *)
  mutable arrived : 'a Msg_id.Map.t;  (* causally delivered, awaiting slot *)
  mutable arrival_order : Msg_id.t list;  (* reversed arrival order *)
  mutable next_deliver : int;
  mutable max_assigned : int;
}

let create () =
  {
    assignment = Msg_id.Map.empty;
    slot = Int_map.empty;
    arrived = Msg_id.Map.empty;
    arrival_order = [];
    next_deliver = 0;
    max_assigned = -1;
  }

let next_deliver t = t.next_deliver
let max_assigned t = t.max_assigned
let assignment_of t id = Msg_id.Map.find_opt id t.assignment
let known_assignments t = Msg_id.Map.bindings t.assignment

let unordered_arrivals t =
  List.rev t.arrival_order
  |> List.filter (fun id -> not (Msg_id.Map.mem id t.assignment))

let pending_count t = Msg_id.Map.cardinal t.arrived

(* Deliver the contiguous run of slots starting at [next_deliver] whose
   messages have arrived. *)
let drain t =
  let rec loop acc =
    match Int_map.find_opt t.next_deliver t.slot with
    | None -> List.rev acc
    | Some id -> begin
      match Msg_id.Map.find_opt id t.arrived with
      | None -> List.rev acc
      | Some payload ->
        t.arrived <- Msg_id.Map.remove id t.arrived;
        t.arrival_order <-
          List.filter (fun other -> not (Msg_id.equal other id)) t.arrival_order;
        let ready = { global_seq = t.next_deliver; id; payload } in
        t.next_deliver <- t.next_deliver + 1;
        loop (ready :: acc)
    end
  in
  loop []

let note_arrival t id payload =
  if Msg_id.Map.mem id t.arrived then []
  else begin
    t.arrived <- Msg_id.Map.add id payload t.arrived;
    t.arrival_order <- id :: t.arrival_order;
    drain t
  end

let record_assignment t id global_seq =
  if Msg_id.Map.mem id t.assignment || Int_map.mem global_seq t.slot then ()
  else begin
    t.assignment <- Msg_id.Map.add id global_seq t.assignment;
    t.slot <- Int_map.add global_seq id t.slot;
    if global_seq > t.max_assigned then t.max_assigned <- global_seq
  end

let note_order t id ~global_seq =
  record_assignment t id global_seq;
  drain t

let adopt t assignments =
  List.iter (fun (id, seq) -> record_assignment t id seq) assignments;
  drain t

let fast_forward t ~next_deliver =
  if next_deliver > t.next_deliver then begin
    t.next_deliver <- next_deliver;
    let stale seq = seq < next_deliver in
    let stale_ids =
      Int_map.fold
        (fun seq id acc -> if stale seq then id :: acc else acc)
        t.slot []
    in
    List.iter
      (fun id ->
        t.arrived <- Msg_id.Map.remove id t.arrived;
        t.arrival_order <-
          List.filter (fun other -> not (Msg_id.equal other id)) t.arrival_order)
      stale_ids;
    t.slot <- Int_map.filter (fun seq _ -> not (stale seq)) t.slot
  end
