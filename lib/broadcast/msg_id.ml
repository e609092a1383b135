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

let equal a b = compare a b = 0

(* Every field is immediate, so this hashes the record in place without
   allocating. *)
let hash t = Hashtbl.hash t

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

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
