type cls = Reliable | Causal | Total

type t = { origin : Net.Site_id.t; cls : cls; seq : int }

let cls_rank = function Reliable -> 0 | Causal -> 1 | Total -> 2

let compare a b =
  match Net.Site_id.compare a.origin b.origin with
  | 0 -> begin
    match Int.compare (cls_rank a.cls) (cls_rank b.cls) with
    | 0 -> Int.compare a.seq b.seq
    | c -> c
  end
  | c -> c

let equal a b = a.origin = b.origin && a.cls = b.cls && a.seq = b.seq

(* Six bits hold an origin below [Site_id.max_sites] = 63, and two the
   class. *)
let key t = (((t.seq lsl 6) lor t.origin) lsl 2) lor cls_rank t.cls

let of_key k =
  let cls = match k land 3 with 0 -> Reliable | 1 -> Causal | _ -> Total in
  { origin = (k lsr 2) land 63; cls; seq = k asr 8 }

let pp_cls ppf cls =
  Format.pp_print_string ppf
    (match cls with Reliable -> "R" | Causal -> "C" | Total -> "T")

let pp ppf t =
  Format.fprintf ppf "%a/%a#%d" Net.Site_id.pp t.origin pp_cls t.cls t.seq

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)
