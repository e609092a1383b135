type t = {
  bounds : float array;  (* strictly increasing upper bounds *)
  counts : int array;  (* length bounds + 1; last is overflow *)
  mutable total : int;
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
}

let default_bounds =
  [|
    0.01; 0.02; 0.05; 0.1; 0.2; 0.5; 1.0; 2.0; 5.0; 10.0; 20.0; 50.0; 100.0;
    200.0; 500.0; 1000.0; 2000.0; 5000.0; 10000.0;
  |]

let create ?(bounds = default_bounds) () =
  if Array.length bounds = 0 then invalid_arg "Hist.create: empty bounds";
  Array.iteri
    (fun i b ->
      if i > 0 && b <= bounds.(i - 1) then
        invalid_arg "Hist.create: bounds not strictly increasing")
    bounds;
  {
    bounds;
    counts = Array.make (Array.length bounds + 1) 0;
    total = 0;
    sum = 0.0;
    vmin = 0.0;
    vmax = 0.0;
  }

(* First bucket whose upper bound the value does not exceed: binary search
   for the leftmost bound >= v. Values above every bound overflow. *)
let bucket_index t v =
  let n = Array.length t.bounds in
  if v > t.bounds.(n - 1) then n
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if v <= t.bounds.(mid) then hi := mid else lo := mid + 1
    done;
    !lo
  end

let observe t v =
  let i = bucket_index t v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.sum <- t.sum +. v;
  if t.total = 0 then begin
    t.vmin <- v;
    t.vmax <- v
  end
  else begin
    if v < t.vmin then t.vmin <- v;
    if v > t.vmax then t.vmax <- v
  end;
  t.total <- t.total + 1

let count t = t.total
let sum t = t.sum
let mean t = if t.total = 0 then 0.0 else t.sum /. float_of_int t.total
let min_value t = t.vmin
let max_value t = t.vmax

let bucket_counts t =
  Array.to_list
    (Array.mapi
       (fun i c ->
         let bound =
           if i < Array.length t.bounds then t.bounds.(i) else infinity
         in
         (bound, c))
       t.counts)

let percentile t p =
  if p < 0.0 || p > 1.0 then invalid_arg "Hist.percentile";
  if t.total = 0 then 0.0
  else begin
    (* nearest rank: the smallest bucket whose cumulative count reaches
       ceil(p * total), clamped to at least the first sample *)
    let rank =
      Stdlib.max 1 (int_of_float (ceil (p *. float_of_int t.total)))
    in
    let n = Array.length t.counts in
    let rec find i cum =
      if i >= n - 1 then t.vmax (* overflow bucket: report the true max *)
      else
        let cum = cum + t.counts.(i) in
        if cum >= rank then t.bounds.(i) else find (i + 1) cum
    in
    find 0 0
  end

let merge_into ~src ~dst =
  if src.bounds <> dst.bounds then invalid_arg "Hist.merge_into: bounds differ";
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  dst.sum <- dst.sum +. src.sum;
  if src.total > 0 then begin
    if dst.total = 0 then begin
      dst.vmin <- src.vmin;
      dst.vmax <- src.vmax
    end
    else begin
      if src.vmin < dst.vmin then dst.vmin <- src.vmin;
      if src.vmax > dst.vmax then dst.vmax <- src.vmax
    end
  end;
  dst.total <- dst.total + src.total
