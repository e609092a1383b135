type profile = {
  n_keys : int;
  reads_per_txn : int;
  writes_per_txn : int;
  ro_fraction : float;
  zipf_theta : float;
  value_bound : int;
}

let default =
  {
    n_keys = 1000;
    reads_per_txn = 3;
    writes_per_txn = 3;
    ro_fraction = 0.2;
    zipf_theta = 0.0;
    value_bound = 1000;
  }

type gen = { profile : profile; rng : Sim.Rng.t; zipf : Sim.Rng.Zipf.gen }

let create profile ~rng =
  if profile.n_keys <= 0 then invalid_arg "Workload.create: n_keys <= 0";
  if profile.reads_per_txn < 0 || profile.writes_per_txn < 0 then
    invalid_arg "Workload.create: negative reads or writes per txn";
  {
    profile;
    rng = Sim.Rng.split rng;
    zipf = Sim.Rng.Zipf.create ~n:profile.n_keys ~theta:profile.zipf_theta;
  }

let profile_of g = g.profile

(* Distinct keys, skew-sampled; falls back to scanning when the hot spot is
   smaller than the request (tiny key spaces in tests). *)
let sample_keys g count =
  let count = Stdlib.min count g.profile.n_keys in
  let rec draw acc remaining attempts =
    if remaining = 0 then List.rev acc
    else if attempts > 100 * count then begin
      (* degenerate skew: fill with the smallest unused keys *)
      let rec fill acc k remaining =
        if remaining = 0 then List.rev acc
        else if List.mem k acc then fill acc (k + 1) remaining
        else fill (k :: acc) (k + 1) (remaining - 1)
      in
      fill acc 0 remaining
    end
    else begin
      let k = Sim.Rng.Zipf.draw g.zipf g.rng in
      if List.mem k acc then draw acc remaining (attempts + 1)
      else draw (k :: acc) (remaining - 1) (attempts + 1)
    end
  in
  draw [] count 0

let next g =
  let p = g.profile in
  if Sim.Rng.float g.rng 1.0 < p.ro_fraction then
    Repdb.Op.read_only (sample_keys g p.reads_per_txn)
  else begin
    let reads = sample_keys g p.reads_per_txn in
    let write_keys = sample_keys g p.writes_per_txn in
    let writes =
      List.map
        (fun k -> (k, 1 + Sim.Rng.int g.rng p.value_bound))
        write_keys
    in
    Repdb.Op.read_write ~reads ~writes
  end

let cross_conflict_pair profile ~rng =
  let a = Sim.Rng.int rng profile.n_keys in
  let b = (a + 1 + Sim.Rng.int rng (Stdlib.max 1 (profile.n_keys - 1))) mod profile.n_keys in
  let value () = 1 + Sim.Rng.int rng profile.value_bound in
  ( Repdb.Op.read_write ~reads:[ a ] ~writes:[ (b, value ()) ],
    Repdb.Op.read_write ~reads:[ b ] ~writes:[ (a, value ()) ] )

let single_write ~key ~value = Repdb.Op.write_only [ (key, value) ]
