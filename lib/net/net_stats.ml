(* Counts per category, newest category first. A category is almost
   always one of its classifier's string literals, which are shared, so
   the scan tests physical equality before it compares characters. *)
type t = {
  mutable datagrams : int;
  mutable broadcasts : int;
  mutable drops : int;
  per_category : (string * int ref) list ref;
  drop_per_category : (string * int ref) list ref;
}

let create () =
  {
    datagrams = 0;
    broadcasts = 0;
    drops = 0;
    per_category = ref [];
    drop_per_category = ref [];
  }

(* The "no such category" answer of [find]; compared physically. *)
let absent = ref 0

let rec find name = function
  | (n, r) :: rest ->
    if n == name || String.equal n name then r else find name rest
  | [] -> absent

let bump_in counts ~category n =
  let r = find category !counts in
  if r != absent then r := !r + n else counts := (category, ref n) :: !counts

let bump t ~category n = bump_in t.per_category ~category n

let record_send t ~category =
  t.datagrams <- t.datagrams + 1;
  bump t ~category 1

let record_broadcast t ~category ~receivers =
  t.broadcasts <- t.broadcasts + 1;
  t.datagrams <- t.datagrams + receivers;
  bump t ~category receivers

let record_drop t ~category =
  t.drops <- t.drops + 1;
  bump_in t.drop_per_category ~category 1

let datagrams t = t.datagrams
let broadcasts t = t.broadcasts
let drops t = t.drops

let sorted_counts counts =
  List.map (fun (name, r) -> (name, !r)) !counts
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let by_category t = sorted_counts t.per_category
let drops_by_category t = sorted_counts t.drop_per_category
let datagrams_for t ~category = !(find category !(t.per_category))

let reset t =
  t.datagrams <- 0;
  t.broadcasts <- 0;
  t.drops <- 0;
  t.per_category := [];
  t.drop_per_category := []

let pp ppf t =
  Format.fprintf ppf "datagrams=%d broadcasts=%d drops=%d" t.datagrams
    t.broadcasts t.drops;
  List.iter (fun (k, v) -> Format.fprintf ppf " %s=%d" k v) (by_category t);
  List.iter
    (fun (k, v) -> Format.fprintf ppf " drop[%s]=%d" k v)
    (drops_by_category t)
