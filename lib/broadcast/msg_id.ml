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

(* Plain arithmetic on the three fields, mixed by one odd multiply:
   [Hashtbl] indexes its buckets with the low bits, and sequence numbers
   alone would fill them in runs. *)
let hash t =
  let h = (((t.seq lsl 6) lor t.origin) lsl 2) lor cls_rank t.cls in
  (h * 0x1E3779B97F4A7C15) lsr 17

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
