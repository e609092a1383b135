type t = int

let compare = Int.compare
let equal = Int.equal
let hash = Hashtbl.hash
let pp ppf t = Format.fprintf ppf "S%d" t
let to_string t = "S" ^ string_of_int t

let max_sites = Sys.int_size

let all ~n = List.init n Fun.id

module Set = struct
  type elt = int

  (* bit [i] set iff site [i] is a member *)
  type t = int

  let empty = 0

  let add site s =
    if site < 0 || site >= max_sites then
      invalid_arg "Site_id.Set.add: site out of range";
    s lor (1 lsl site)

  let remove site s =
    if site < 0 || site >= max_sites then s else s land lnot (1 lsl site)

  let mem site s = site >= 0 && site < max_sites && s land (1 lsl site) <> 0
  let of_list sites = List.fold_left (fun s site -> add site s) empty sites

  let elements s =
    let rec go site acc =
      if site < 0 then acc
      else go (site - 1) (if mem site s then site :: acc else acc)
    in
    go (max_sites - 1) []

  (* [lsr] shifts a zero into the sign bit, so the scans end once the
     highest member is behind them. *)
  let min_elt_opt s =
    let rec go site rest =
      if rest = 0 then None
      else if rest land 1 <> 0 then Some site
      else go (site + 1) (rest lsr 1)
    in
    go 0 s

  let cardinal s =
    let rec go k rest = if rest = 0 then k else go (k + 1) (rest land (rest - 1)) in
    go 0 s

  let equal = Int.equal
  let subset a b = a land lnot b = 0
  let disjoint a b = a land b = 0

  (* Top-level scans, so that a call builds no closure around [p]. *)
  let rec exists_from p site rest =
    rest <> 0
    && ((rest land 1 <> 0 && p site) || exists_from p (site + 1) (rest lsr 1))

  let rec for_all_from p site rest =
    rest = 0
    || ((rest land 1 = 0 || p site) && for_all_from p (site + 1) (rest lsr 1))

  let exists p s = exists_from p 0 s
  let for_all p s = for_all_from p 0 s
end
