module Int_map = Map.Make (Int)

type 'a origin_state = { mutable next : int; mutable buffered : 'a Int_map.t }

(* One slot per possible origin, indexed by site: sites are below
   [Site_id.max_sites]. *)
type 'a t = 'a origin_state array

let create () =
  Array.init Net.Site_id.max_sites (fun _ -> { next = 0; buffered = Int_map.empty })

let expected t ~origin = t.(origin).next

type 'a offer_result =
  | Ready of (int * 'a) list
  | Buffered
  | Duplicate

(* Release the contiguous run starting at [s.next] from the buffer. *)
let drain s =
  let rec loop acc =
    match Int_map.find_opt s.next s.buffered with
    | Some msg ->
      s.buffered <- Int_map.remove s.next s.buffered;
      let released = (s.next, msg) in
      s.next <- s.next + 1;
      loop (released :: acc)
    | None -> List.rev acc
  in
  loop []

let offer t ~origin ~seq msg =
  let s = t.(origin) in
  if seq < s.next then Duplicate
  else if seq = s.next then begin
    s.next <- s.next + 1;
    if Int_map.is_empty s.buffered then Ready [ (seq, msg) ]
    else Ready ((seq, msg) :: drain s)
  end
  else if Int_map.mem seq s.buffered then Duplicate
  else begin
    s.buffered <- Int_map.add seq msg s.buffered;
    Buffered
  end

let fast_forward t ~origin ~next_seq =
  let s = t.(origin) in
  if next_seq <= s.next then []
  else begin
    s.next <- next_seq;
    s.buffered <- Int_map.filter (fun seq _ -> seq >= next_seq) s.buffered;
    drain s
  end

let purge t ~origin = t.(origin).buffered <- Int_map.empty

let pending_count t =
  Array.fold_left (fun acc s -> acc + Int_map.cardinal s.buffered) 0 t
