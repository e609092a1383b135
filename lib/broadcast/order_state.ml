type 'a ready = { global_seq : int; id : Msg_id.t; payload : 'a }

(* Marks an empty slot; compared physically. No real message has origin -1. *)
let vacant = { Msg_id.origin = -1; cls = Msg_id.Total; seq = -1 }

(* Tables keyed by [Msg_id.key]. *)
type 'a t = {
  assignment : int Sim.Int_table.t;  (* msg -> global seq, or -1; never pruned *)
  mutable slots : Msg_id.t array;  (* global seq -> msg, or [vacant] *)
  arrived : 'a option Sim.Int_table.t;  (* causally delivered, awaiting slot *)
  mutable queue : Msg_id.t array;
      (* the arrivals that had no assignment when they came, oldest first,
         in [queue.(0 .. queued - 1)]; those assigned since are dropped at
         the next compaction *)
  mutable queued : int;
  mutable unassigned : int;  (* arrived, no assignment yet *)
  mutable next_deliver : int;
  mutable max_assigned : int;
}

let create () =
  {
    assignment = Sim.Int_table.create ~vacant:(-1);
    slots = Array.make 64 vacant;
    arrived = Sim.Int_table.create ~vacant:None;
    queue = Array.make 16 vacant;
    queued = 0;
    unassigned = 0;
    next_deliver = 0;
    max_assigned = -1;
  }

let next_deliver t = t.next_deliver
let max_assigned t = t.max_assigned
let assigned t id = Sim.Int_table.find t.assignment (Msg_id.key id) >= 0

let assignment_of t id =
  match Sim.Int_table.find t.assignment (Msg_id.key id) with
  | -1 -> None
  | seq -> Some seq

let known_assignments t =
  Sim.Int_table.fold (fun k seq acc -> (Msg_id.of_key k, seq) :: acc) t.assignment []
  |> List.sort (fun (a, _) (b, _) -> Msg_id.compare a b)

(* Keep, in order, only the queued arrivals still unassigned. *)
let compact t =
  let live = ref 0 in
  for i = 0 to t.queued - 1 do
    let id = t.queue.(i) in
    if not (assigned t id) then begin
      t.queue.(!live) <- id;
      incr live
    end
  done;
  Array.fill t.queue !live (t.queued - !live) vacant;
  t.queued <- !live

let unordered_arrivals t =
  if t.unassigned = 0 then []
  else begin
    compact t;
    List.init t.queued (Array.get t.queue)
  end

let pending_count t = Sim.Int_table.length t.arrived
let unassigned_count t = t.unassigned

let slot t seq = if seq < Array.length t.slots then t.slots.(seq) else vacant

(* Deliver the contiguous run of slots starting at [next_deliver] whose
   messages have arrived. *)
let drain t =
  let rec loop acc =
    let id = slot t t.next_deliver in
    if id == vacant then List.rev acc
    else
      match Sim.Int_table.find t.arrived (Msg_id.key id) with
      | None -> List.rev acc
      | Some payload ->
        Sim.Int_table.remove t.arrived (Msg_id.key id);
        let ready = { global_seq = t.next_deliver; id; payload } in
        t.next_deliver <- t.next_deliver + 1;
        loop (ready :: acc)
  in
  loop []

let enqueue t id =
  if t.queued = Array.length t.queue then begin
    let grown = Array.make (2 * t.queued) vacant in
    Array.blit t.queue 0 grown 0 t.queued;
    t.queue <- grown
  end;
  t.queue.(t.queued) <- id;
  t.queued <- t.queued + 1

let note_arrival t id payload =
  let k = Msg_id.key id in
  if Sim.Int_table.find t.arrived k != None then []
  else begin
    Sim.Int_table.replace t.arrived k (Some payload);
    if not (assigned t id) then begin
      enqueue t id;
      t.unassigned <- t.unassigned + 1
    end;
    drain t
  end

let record_assignment t id global_seq =
  if global_seq < 0 then invalid_arg "Order_state: negative global seq";
  if not (assigned t id || slot t global_seq != vacant) then begin
    Sim.Int_table.replace t.assignment (Msg_id.key id) global_seq;
    let len = Array.length t.slots in
    if global_seq >= len then begin
      let grown = Array.make (max (2 * len) (global_seq + 1)) vacant in
      Array.blit t.slots 0 grown 0 len;
      t.slots <- grown
    end;
    t.slots.(global_seq) <- id;
    if global_seq > t.max_assigned then t.max_assigned <- global_seq;
    (* An arrival without an assignment is still in [arrived]: only a slot
       delivers or discards one. *)
    if Sim.Int_table.find t.arrived (Msg_id.key id) != None then begin
      t.unassigned <- t.unassigned - 1;
      (* The queue drops assigned ids lazily: compact it once most of it is
         dead, so that a site that never sweeps keeps O(backlog) of it. *)
      if t.queued > (2 * t.unassigned) + 16 then compact t
    end
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
        Sim.Int_table.remove t.arrived (Msg_id.key id);
        t.slots.(seq) <- vacant
      end
    done
  end
