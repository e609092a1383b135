type 'a ready = { global_seq : int; id : Msg_id.t; payload : 'a }

(* Marks an empty slot; compared physically. No real message has origin -1. *)
let vacant = { Msg_id.origin = -1; cls = Msg_id.Total; seq = -1 }

type 'a t = {
  assignment : int Msg_id.Tbl.t;  (* msg -> global seq; never pruned *)
  mutable slots : Msg_id.t array;  (* global seq -> msg, or [vacant] *)
  arrived : 'a Msg_id.Tbl.t;  (* causally delivered, awaiting slot *)
  unassigned : int Msg_id.Tbl.t;  (* arrived, no assignment -> arrival no. *)
  mutable arrivals : int;  (* arrival numbers handed out *)
  mutable next_deliver : int;
  mutable max_assigned : int;
}

let create () =
  {
    assignment = Msg_id.Tbl.create 64;
    slots = Array.make 64 vacant;
    arrived = Msg_id.Tbl.create 16;
    unassigned = Msg_id.Tbl.create 16;
    arrivals = 0;
    next_deliver = 0;
    max_assigned = -1;
  }

let next_deliver t = t.next_deliver
let max_assigned t = t.max_assigned
let assignment_of t id = Msg_id.Tbl.find_opt t.assignment id

let known_assignments t =
  Msg_id.Tbl.fold (fun id seq acc -> (id, seq) :: acc) t.assignment []
  |> List.sort (fun (a, _) (b, _) -> Msg_id.compare a b)

let unordered_arrivals t =
  if Msg_id.Tbl.length t.unassigned = 0 then []
  else
    Msg_id.Tbl.fold (fun id n acc -> (n, id) :: acc) t.unassigned []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map snd

let pending_count t = Msg_id.Tbl.length t.arrived
let unassigned_count t = Msg_id.Tbl.length t.unassigned

let slot t seq = if seq < Array.length t.slots then t.slots.(seq) else vacant

(* Deliver the contiguous run of slots starting at [next_deliver] whose
   messages have arrived. *)
let drain t =
  let rec loop acc =
    let id = slot t t.next_deliver in
    if id == vacant then List.rev acc
    else
      match Msg_id.Tbl.find_opt t.arrived id with
      | None -> List.rev acc
      | Some payload ->
        Msg_id.Tbl.remove t.arrived id;
        let ready = { global_seq = t.next_deliver; id; payload } in
        t.next_deliver <- t.next_deliver + 1;
        loop (ready :: acc)
  in
  loop []

let note_arrival t id payload =
  if Msg_id.Tbl.mem t.arrived id then []
  else begin
    Msg_id.Tbl.add t.arrived id payload;
    if not (Msg_id.Tbl.mem t.assignment id) then begin
      Msg_id.Tbl.add t.unassigned id t.arrivals;
      t.arrivals <- t.arrivals + 1
    end;
    drain t
  end

let record_assignment t id global_seq =
  if global_seq < 0 then invalid_arg "Order_state: negative global seq";
  if not (Msg_id.Tbl.mem t.assignment id || slot t global_seq != vacant) then begin
    Msg_id.Tbl.add t.assignment id global_seq;
    let len = Array.length t.slots in
    if global_seq >= len then begin
      let grown = Array.make (max (2 * len) (global_seq + 1)) vacant in
      Array.blit t.slots 0 grown 0 len;
      t.slots <- grown
    end;
    t.slots.(global_seq) <- id;
    if global_seq > t.max_assigned then t.max_assigned <- global_seq;
    Msg_id.Tbl.remove t.unassigned id;
    (* [remove] never shrinks a bucket array, and [unordered_arrivals]
       folds over this one: reset it once empty, so a backlog that grew it
       is not paid for again on every later sweep. *)
    if Msg_id.Tbl.length t.unassigned = 0 then Msg_id.Tbl.reset t.unassigned
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
    for seq = 0 to min next_deliver (Array.length t.slots) - 1 do
      let id = t.slots.(seq) in
      if id != vacant then begin
        Msg_id.Tbl.remove t.arrived id;
        t.slots.(seq) <- vacant
      end
    done
  end
