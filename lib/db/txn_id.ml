type t = { origin : Net.Site_id.t; local : int }

let make ~origin ~local =
  if origin < 0 || origin >= Net.Site_id.max_sites then
    invalid_arg "Txn_id.make: origin outside [0, Site_id.max_sites)";
  if local < 0 then invalid_arg "Txn_id.make: negative local";
  { origin; local }

let compare a b =
  match Int.compare a.local b.local with
  | 0 -> Net.Site_id.compare a.origin b.origin
  | c -> c

let equal a b = a.local = b.local && a.origin = b.origin

(* Six bits hold an origin below [Site_id.max_sites] = 63, and [local] is
   the major field, as in [compare]. *)
let key t = (t.local lsl 6) lor t.origin

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
