type t = { origin : Net.Site_id.t; local : int }

let make ~origin ~local = { origin; local }

let compare a b =
  match Int.compare a.local b.local with
  | 0 -> Net.Site_id.compare a.origin b.origin
  | c -> c

let equal a b = compare a b = 0
(* The record has the layout of the tuple [(origin, local)], so this is the
   tuple's hash without allocating the tuple. *)
let hash t = Hashtbl.hash t
let pp ppf t = Format.fprintf ppf "T%d.%d" t.origin t.local
let to_string t = Format.asprintf "%a" pp t

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
