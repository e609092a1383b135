module Vc = Lclock.Vector_clock
module Int_map = Map.Make (Int)
module Int_set = Set.Make (Int)

type 'a release = { origin : Net.Site_id.t; vc : Vc.t; payload : 'a }

(* A buffered message is parked on exactly one unsatisfied component of its
   stamp: the wake key [(site, count)] fires when the delivered count for
   [site] reaches [count]. A delivery therefore wakes only the direct
   successors of the delivered message instead of re-filtering the whole
   pending list to a fixpoint (which goes quadratic under bursty arrivals).
   [arrival] is the offer-order index; sweeps release in the same order a
   sequential arrival-order re-scan would. *)
type 'a parked = { release : 'a release; arrival : int }

type 'a t = {
  delivered : int array;
  buckets : 'a parked list Int_map.t array;
      (* per site: count -> the messages parked on (site, count) *)
  pending : Int_set.t array;  (* per origin: the seqs buffered *)
  mutable next_arrival : int;
  mutable n_pending : int;
}

let create ~n =
  if n <= 0 then invalid_arg "Delay_queue.create: n <= 0";
  {
    delivered = Array.make n 0;
    buckets = Array.make n Int_map.empty;
    pending = Array.make n Int_set.empty;
    next_arrival = 0;
    n_pending = 0;
  }

let delivered_vc t = Vc.of_array t.delivered

type 'a offer_result =
  | Ready of 'a release list
  | Buffered
  | Duplicate

let seq_of release = Vc.get release.vc release.origin

(* Read in place: the next message from its origin, and nothing else in its
   stamp undelivered here. *)
let deliverable t release =
  let vc = release.vc and o = release.origin in
  let rec covered k =
    k = Array.length t.delivered
    || ((k = o || Vc.get vc k <= t.delivered.(k)) && covered (k + 1))
  in
  Vc.get vc o = t.delivered.(o) + 1 && covered 0

(* Minimal binary min-heap on arrival index: the sweep's scan cursor. *)
module Heap = struct
  type 'a t = { mutable arr : (int * 'a) array; mutable len : int }

  let create () = { arr = [||]; len = 0 }

  let swap h i j =
    let tmp = h.arr.(i) in
    h.arr.(i) <- h.arr.(j);
    h.arr.(j) <- tmp

  let push h key v =
    if h.len = Array.length h.arr then begin
      let grown = Array.make (max 4 (2 * h.len)) (key, v) in
      Array.blit h.arr 0 grown 0 h.len;
      h.arr <- grown
    end;
    h.arr.(h.len) <- (key, v);
    let i = ref h.len in
    h.len <- h.len + 1;
    while !i > 0 && fst h.arr.((!i - 1) / 2) > fst h.arr.(!i) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let pop h =
    if h.len = 0 then None
    else begin
      let _, v = h.arr.(0) in
      h.len <- h.len - 1;
      h.arr.(0) <- h.arr.(h.len);
      let i = ref 0 in
      let sifting = ref true in
      while !sifting do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.len && fst h.arr.(l) < fst h.arr.(!smallest) then smallest := l;
        if r < h.len && fst h.arr.(r) < fst h.arr.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          swap h !i !smallest;
          i := !smallest
        end
        else sifting := false
      done;
      Some v
    end
end

(* Park on one unsatisfied wake key: the own-stream predecessor if the
   message is not yet next from its origin, else the first lagging cross
   component. The caller guarantees the release is not deliverable and not
   stale, so such a key exists; components only grow, so a fired key stays
   satisfied and re-parking on another never loses a wake. *)
let park t parked =
  let vc = parked.release.vc in
  let o = parked.release.origin in
  let site =
    if t.delivered.(o) < Vc.get vc o - 1 then o
    else begin
      let rec lagging k =
        if k <> o && Vc.get vc k > t.delivered.(k) then k else lagging (k + 1)
      in
      lagging 0
    end
  in
  let count = if site = o then Vc.get vc o - 1 else Vc.get vc site in
  let m = t.buckets.(site) in
  let bucket = match Int_map.find_opt count m with Some l -> l | None -> [] in
  t.buckets.(site) <- Int_map.add count (parked :: bucket) m

let take_bucket t site count =
  let m = t.buckets.(site) in
  match Int_map.find_opt count m with
  | None -> []
  | Some l ->
    t.buckets.(site) <- Int_map.remove count m;
    l

(* Remove every parked message matching [pred] on its (origin, seq)
   identity (rare: membership changes and catch-up jumps only). *)
let remove_parked t pred =
  Array.iteri
    (fun site m ->
      t.buckets.(site) <-
        Int_map.filter_map
          (fun _ bucket ->
            let kept =
              List.filter
                (fun p -> not (pred p.release.origin (seq_of p.release)))
                bucket
            in
            t.n_pending <- t.n_pending - (List.length bucket - List.length kept);
            if kept = [] then None else Some kept)
          m)
    t.buckets;
  Array.iteri
    (fun o seqs -> t.pending.(o) <- Int_set.filter (fun s -> not (pred o s)) seqs)
    t.pending

(* Sweep: deliver everything a set of count changes unblocks. Candidates
   are processed in ascending arrival index; a delivery wakes only the
   bucket of the count it advanced. A candidate woken at or before the
   current cursor waits for the next round — exactly when a re-scan of the
   arrival-order list would next consider it — so the release order matches
   the previous fixpoint implementation's output verbatim. *)
let drain_from t woken =
  let released = ref [] in
  let heap = Heap.create () in
  let next_round = ref [] in
  List.iter (fun p -> Heap.push heap p.arrival p) woken;
  let pos = ref (-1) in
  let wake site count =
    List.iter
      (fun p ->
        if p.arrival > !pos then Heap.push heap p.arrival p
        else next_round := p :: !next_round)
      (take_bucket t site count)
  in
  let deliver p =
    let o = p.release.origin in
    let seq = t.delivered.(o) + 1 in
    t.delivered.(o) <- seq;
    t.pending.(o) <- Int_set.remove seq t.pending.(o);
    t.n_pending <- t.n_pending - 1;
    released := p.release :: !released;
    wake o seq
  in
  let sweeping = ref true in
  while !sweeping do
    match Heap.pop heap with
    | Some p ->
      pos := p.arrival;
      if deliverable t p.release then deliver p else park t p
    | None -> (
      match !next_round with
      | [] -> sweeping := false
      | l ->
        next_round := [];
        pos := -1;
        List.iter (fun p -> Heap.push heap p.arrival p) l)
  done;
  List.rev !released

let offer t ~origin ~vc payload =
  if Vc.size vc <> Array.length t.delivered then
    invalid_arg "Delay_queue.offer: vector clock dimension mismatch";
  let release = { origin; vc; payload } in
  let seq = seq_of release in
  if seq <= t.delivered.(origin) then Duplicate
  else if t.n_pending > 0 && Int_set.mem seq t.pending.(origin) then Duplicate
  else if deliverable t release then begin
    t.delivered.(origin) <- seq;
    (* With nothing parked there is nobody to wake. *)
    if t.n_pending = 0 then Ready [ release ]
    else
      match take_bucket t origin seq with
      | [] -> Ready [ release ]
      | woken -> Ready (release :: drain_from t woken)
  end
  else begin
    let parked = { release; arrival = t.next_arrival } in
    t.next_arrival <- t.next_arrival + 1;
    t.pending.(origin) <- Int_set.add seq t.pending.(origin);
    t.n_pending <- t.n_pending + 1;
    park t parked;
    Buffered
  end

let fast_forward t ~origin ~count =
  if count <= t.delivered.(origin) then []
  else begin
    let from = t.delivered.(origin) in
    t.delivered.(origin) <- count;
    remove_parked t (fun o seq -> Net.Site_id.equal o origin && seq <= count);
    let woken = ref [] in
    for c = from + 1 to count do
      woken := !woken @ take_bucket t origin c
    done;
    drain_from t !woken
  end

let purge t ~origin =
  remove_parked t (fun o _seq -> Net.Site_id.equal o origin)

let pending_count t = t.n_pending
