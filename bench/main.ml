(* Disabled-path cost gate: the span recorder, the audit log and the
   sampler are compiled into every protocol, so each call on their
   disabled singletons must stay a single predictable branch. A wall clock
   over a big loop, with a bound loose enough for CI noise and tight
   enough to catch an accidental allocation or table lookup on the
   disabled path. Exits 1 over the bound.

   Usage: dune exec bench/main.exe *)

let () =
  let obs = Obs.Recorder.none in
  let audit = Audit.Log.none in
  let sampler = Obs.Sampler.none in
  (* Pre-built so the loop measures the disabled calls themselves, not the
     construction of their arguments. *)
  let probe_labels = [ ("site", "0") ] in
  let probe = fun () -> 0.0 in
  let iters = 5_000_000 in
  for i = 1 to 100_000 do
    (* warm-up *)
    Obs.Recorder.submit obs ~at:(Sim.Time.of_us i) ~site:0 ~origin:0 ~local:i
  done;
  let t0 = Unix.gettimeofday () in
  for i = 1 to iters do
    Obs.Recorder.submit obs ~at:(Sim.Time.of_us i) ~site:0 ~origin:0 ~local:i;
    Audit.Log.send audit ~at:(Sim.Time.of_us i) ~origin:0 ~cls:Audit.Event.C
      ~seq:i ~txn:None ~vc:None;
    Audit.Log.deliver audit ~at:(Sim.Time.of_us i) ~site:0 ~origin:0
      ~cls:Audit.Event.C ~seq:i ~vc:None ~global_seq:None ~flush:false;
    Obs.Sampler.register sampler ~name:"gate" ~labels:probe_labels probe;
    Obs.Sampler.tick sampler ~at:(Sim.Time.of_us i)
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let calls = 5 * iters in
  let ns = wall *. 1e9 /. float_of_int calls in
  let bound = 50.0 in
  Printf.printf
    "obs+audit+sampler disabled-mode overhead: %.2f ns/call (%d calls)\n" ns
    calls;
  if ns > bound then begin
    Printf.printf "GATE FAIL: over the %.0f ns/call bound\n" bound;
    exit 1
  end;
  Printf.printf "GATE OK: under the %.0f ns/call bound\n" bound
