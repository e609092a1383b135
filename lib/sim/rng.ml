type t = { mutable state : int64 }

(* splitmix64 (Steele, Lea, Flood 2014): tiny, fast, and passes BigCrush for
   our purposes; most importantly it is trivially splittable, which keeps
   independent simulation components on independent streams. *)

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed = { state = mix64 (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let s = bits64 t in
  { state = s }

let copy t = { state = t.state }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  (* Rejection-free modulo is fine here: bound is tiny relative to 2^62 so
     bias is negligible for simulation use. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (bits64 t) 1L = 1L

let uniform_int t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.uniform_int: hi < lo";
  lo + int t (hi - lo + 1)

let exponential t ~mean =
  if mean <= 0.0 then invalid_arg "Rng.exponential: mean <= 0";
  let u = float t 1.0 in
  (* Guard against log 0. *)
  let u = if u <= 0.0 then 1e-300 else u in
  -.mean *. log u

module Zipf = struct
  (* [Uniform n] stands for the table [theta = 0] would build, whose entry
     [k] is [float (k+1) /. float n]. *)
  type gen = Table of float array | Uniform of int

  let create ~n ~theta =
    if n <= 0 then invalid_arg "Zipf.create: n <= 0";
    if theta = 0.0 then Uniform n
    else begin
      let cdf = Array.make n 0.0 in
      let total = ref 0.0 in
      for k = 0 to n - 1 do
        total := !total +. (1.0 /. Float.pow (float_of_int (k + 1)) theta);
        cdf.(k) <- !total
      done;
      for k = 0 to n - 1 do
        cdf.(k) <- cdf.(k) /. !total
      done;
      Table cdf
    end

  (* The first index [k] whose entry is [>= u]. For [Uniform n] that index
     is at most [floor (u * n)]: the entry at [ceil (u * n) - 1] rounds
     [ceil (u * n) / n], which is [>= u]. The product [u *. float n],
     rounded once, is not below that floor and overshoots the index by at
     most one. *)
  let index gen u =
    match gen with
    | Table cdf ->
      let rec search lo hi =
        if lo >= hi then lo
        else begin
          let mid = (lo + hi) / 2 in
          if cdf.(mid) >= u then search lo mid else search (mid + 1) hi
        end
      in
      search 0 (Array.length cdf - 1)
    | Uniform n ->
      let entry k = float_of_int (k + 1) /. float_of_int n in
      let k = min (n - 1) (int_of_float (u *. float_of_int n)) in
      if k > 0 && entry (k - 1) >= u then k - 1 else k

  let draw gen t = index gen (float t 1.0)
end

let zipf t ~n ~theta =
  let gen = Zipf.create ~n ~theta in
  Zipf.draw gen t
