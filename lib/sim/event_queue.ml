(* The keys of a chain's events queued behind its head: a ring of
   (time, seq) pairs, oldest first, interleaved in one array whose length
   is twice a power of two. *)
type ring = {
  mutable keys : int array;
  mutable first : int;  (* pair index of the oldest key *)
  mutable count : int;
  mutable armed : bool;  (* the chain's head entry is in the heap *)
  mutable last : Time.t;  (* time of the chain's latest push *)
}

type 'a entry = {
  mutable time : Time.t;
  mutable seq : int;
  value : 'a;
  owner : int;  (* unique id of the queue that issued the handle *)
  mutable cancelled : bool;
  ring : ring option;  (* [Some] for a chain's head, re-keyed as it pops *)
}

type handle = H : 'a entry -> handle

type 'a t = {
  id : int;
  mutable heap : 'a entry array;
  (* [heap] is a binary min-heap in [heap.(0 .. len - 1)]. *)
  mutable len : int;
  mutable next_seq : int;
  mutable live : int;
      (* uncancelled events, those queued behind a chain's head included *)
}

type 'a chain = { c_queue : 'a t; c_head : 'a entry; c_ring : ring }

(* Queue ids are process-global (and domain-safe: parallel experiment runs
   each create their own engines) so a handle can name its owning queue
   even though the handle type hides the element type. *)
let next_queue_id = Atomic.make 0

let create () =
  {
    id = Atomic.fetch_and_add next_queue_id 1;
    heap = [||];
    len = 0;
    next_seq = 0;
    live = 0;
  }

let is_empty q = q.live = 0
let size q = q.live

let entry_lt a b =
  a.time < b.time || (a.time = b.time && a.seq < b.seq)

let swap q i j =
  let tmp = q.heap.(i) in
  q.heap.(i) <- q.heap.(j);
  q.heap.(j) <- tmp

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if entry_lt q.heap.(i) q.heap.(parent) then begin
      swap q i parent;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < q.len && entry_lt q.heap.(l) q.heap.(!smallest) then smallest := l;
  if r < q.len && entry_lt q.heap.(r) q.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap q i !smallest;
    sift_down q !smallest
  end

let insert q entry =
  let capacity = Array.length q.heap in
  if q.len = capacity then begin
    let heap = Array.make (Stdlib.max 16 (2 * capacity)) entry in
    Array.blit q.heap 0 heap 0 q.len;
    q.heap <- heap
  end;
  q.heap.(q.len) <- entry;
  q.len <- q.len + 1;
  sift_up q (q.len - 1)

let take_seq q =
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  q.live <- q.live + 1;
  seq

let push q ~time value =
  let seq = take_seq q in
  let entry = { time; seq; value; owner = q.id; cancelled = false; ring = None } in
  insert q entry;
  H entry

let cancel q (H entry) =
  (* A handle only ever decrements the [live] count of the queue that
     issued it; cancelling through the wrong queue would silently corrupt
     [size]/[is_empty], so it is rejected loudly instead. *)
  if entry.owner <> q.id then
    invalid_arg "Event_queue.cancel: handle from a different queue";
  if not entry.cancelled then begin
    entry.cancelled <- true;
    q.live <- q.live - 1
  end

let chain q value =
  let ring = { keys = [||]; first = 0; count = 0; armed = false; last = Time.zero } in
  let head =
    { time = Time.zero; seq = 0; value; owner = q.id; cancelled = false; ring = Some ring }
  in
  { c_queue = q; c_head = head; c_ring = ring }

let push_chain c ~time =
  let r = c.c_ring in
  if time < r.last then invalid_arg "Event_queue.push_chain: time goes backwards";
  r.last <- time;
  let seq = take_seq c.c_queue in
  if not r.armed then begin
    r.armed <- true;
    c.c_head.time <- time;
    c.c_head.seq <- seq;
    insert c.c_queue c.c_head
  end
  else begin
    let capacity = Array.length r.keys / 2 in
    if capacity = 0 then r.keys <- [| 0; 0; 0; 0; 0; 0; 0; 0 |]
    else if r.count = capacity then begin
      let keys = Array.make (4 * capacity) 0 in
      for k = 0 to r.count - 1 do
        let from = 2 * ((r.first + k) land (capacity - 1)) in
        keys.(2 * k) <- r.keys.(from);
        keys.((2 * k) + 1) <- r.keys.(from + 1)
      done;
      r.keys <- keys;
      r.first <- 0
    end;
    let at = 2 * ((r.first + r.count) land ((Array.length r.keys / 2) - 1)) in
    r.keys.(at) <- time;
    r.keys.(at + 1) <- seq;
    r.count <- r.count + 1
  end

let drop_root q =
  q.len <- q.len - 1;
  if q.len > 0 then begin
    q.heap.(0) <- q.heap.(q.len);
    sift_down q 0
  end

let rec drop_cancelled q =
  if q.len > 0 && q.heap.(0).cancelled then begin
    drop_root q;
    drop_cancelled q
  end

let min_time q =
  drop_cancelled q;
  if q.len = 0 then invalid_arg "Event_queue.min_time: empty queue";
  q.heap.(0).time

(* A chain's head that pops is re-keyed to the chain's next event and
   sifted down in place: the chain's later events never enter the heap on
   their own. *)
let take q =
  drop_cancelled q;
  if q.len = 0 then invalid_arg "Event_queue.take: empty queue";
  let top = q.heap.(0) in
  q.live <- q.live - 1;
  (match top.ring with
  | Some r when r.count > 0 ->
    let at = 2 * r.first in
    top.time <- r.keys.(at);
    top.seq <- r.keys.(at + 1);
    r.first <- (r.first + 1) land ((Array.length r.keys / 2) - 1);
    r.count <- r.count - 1;
    sift_down q 0
  | Some r ->
    r.armed <- false;
    drop_root q
  | None -> drop_root q);
  top.value

let pop q =
  if is_empty q then None
  else
    let time = min_time q in
    Some (time, take q)

let peek_time q = if is_empty q then None else Some (min_time q)
