type t = {
  mutable samples : float list;  (* reversed insertion order *)
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
  mutable sorted : float array option;  (* cache, invalidated by add *)
}

let create () =
  {
    samples = [];
    count = 0;
    sum = 0.0;
    min_v = infinity;
    max_v = neg_infinity;
    sorted = None;
  }

let add t x =
  t.samples <- x :: t.samples;
  t.count <- t.count + 1;
  t.sum <- t.sum +. x;
  if x < t.min_v then t.min_v <- x;
  if x > t.max_v then t.max_v <- x;
  t.sorted <- None

let count t = t.count
let mean t = if t.count = 0 then 0.0 else t.sum /. float_of_int t.count
let min t = if t.count = 0 then 0.0 else t.min_v
let max t = if t.count = 0 then 0.0 else t.max_v

let sorted t =
  match t.sorted with
  | Some a -> a
  | None ->
    let a = Array.of_list t.samples in
    Array.sort Float.compare a;
    t.sorted <- Some a;
    a

let nth_smallest t k =
  if k < 1 || k > t.count then invalid_arg "Summary.nth_smallest";
  (sorted t).(k - 1)

let percentile t p =
  if p < 0.0 || p > 1.0 then invalid_arg "Summary.percentile: out of [0,1]";
  if t.count = 0 then 0.0
  else begin
    let a = sorted t in
    let rank = int_of_float (Float.round (p *. float_of_int (t.count - 1))) in
    a.(rank)
  end

let median t = percentile t 0.5

let to_list t = List.rev t.samples

let pp ppf t =
  Format.fprintf ppf "n=%d mean=%.3f p50=%.3f p95=%.3f max=%.3f" t.count
    (mean t) (median t) (percentile t 0.95) (max t)
