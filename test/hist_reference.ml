(* Test-only reference for [Obs.Span_stats]' summaries: the fixed-bucket
   histogram E13 once read its counts, means and percentiles from, kept
   verbatim (with its default bounds only) as the differential-test
   oracle. It never keeps the samples: each one lands in the first bucket
   of a 1-2-5 bound series whose upper bound it does not exceed, and a
   percentile is the upper bound of the bucket where the cumulative count
   first reaches the nearest rank (the observed maximum past the last
   bound). The library must report exactly the same count, mean and
   percentiles. *)

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

let create () =
  {
    bounds = default_bounds;
    counts = Array.make (Array.length default_bounds + 1) 0;
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
let mean t = if t.total = 0 then 0.0 else t.sum /. float_of_int t.total

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
