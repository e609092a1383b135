(* The domain pool: order preservation, exception propagation, pool reuse,
   and the determinism contract the experiment suite depends on — the same
   tables, byte for byte, whatever the pool size. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_jobs n f =
  Parallel.set_jobs (Some n);
  Fun.protect ~finally:(fun () -> Parallel.set_jobs None) f

let test_jobs_resolution () =
  check_bool "default at least 1" true (Parallel.jobs () >= 1);
  Parallel.set_jobs (Some 3);
  check_int "override wins" 3 (Parallel.jobs ());
  Parallel.set_jobs (Some 0);
  check_int "clamped to 1" 1 (Parallel.jobs ());
  Parallel.set_jobs None;
  check_bool "reverts to default" true (Parallel.jobs () >= 1);
  (* BCASTDB_JOBS past OCaml 5.1's 128 domains is ignored like any other
     invalid value. Resolving spawns nothing. *)
  let saved = Option.value ~default:"" (Sys.getenv_opt "BCASTDB_JOBS") in
  Fun.protect
    ~finally:(fun () -> Unix.putenv "BCASTDB_JOBS" saved)
    (fun () ->
      Unix.putenv "BCASTDB_JOBS" "";
      let default = Parallel.jobs () in
      Unix.putenv "BCASTDB_JOBS" "128";
      check_int "env at the cap" 128 (Parallel.jobs ());
      Unix.putenv "BCASTDB_JOBS" "129";
      check_int "env past the cap ignored" default (Parallel.jobs ()))

let test_map_order_preserved () =
  with_jobs 4 (fun () ->
      let input = List.init 500 Fun.id in
      let expected = List.map (fun x -> (x * x) + 1) input in
      Alcotest.(check (list int))
        "matches List.map" expected
        (Parallel.map input ~f:(fun x -> (x * x) + 1)))

let test_map_degenerate () =
  with_jobs 4 (fun () ->
      Alcotest.(check (list int)) "empty" [] (Parallel.map [] ~f:succ);
      Alcotest.(check (list int)) "singleton" [ 8 ] (Parallel.map [ 7 ] ~f:succ))

let test_map_sequential_path () =
  with_jobs 1 (fun () ->
      let input = List.init 100 Fun.id in
      Alcotest.(check (list int))
        "jobs=1 is List.map" (List.map succ input)
        (Parallel.map input ~f:succ))

let test_exception_propagation () =
  with_jobs 4 (fun () ->
      Alcotest.check_raises "raises the task's exception" (Failure "task 137")
        (fun () ->
          ignore
            (Parallel.map (List.init 300 Fun.id) ~f:(fun i ->
                 if i = 137 then failwith "task 137" else i)));
      (* the pool must still be usable afterwards *)
      check_int "pool survives an exception" 300
        (List.length (Parallel.map (List.init 300 Fun.id) ~f:succ)))

let test_first_exception_wins () =
  with_jobs 4 (fun () ->
      Alcotest.check_raises "lowest input index re-raised" (Failure "at 20")
        (fun () ->
          ignore
            (Parallel.map (List.init 100 Fun.id) ~f:(fun i ->
                 if i = 20 then failwith "at 20"
                 else if i = 80 then failwith "at 80"
                 else i))))

let test_pool_reuse () =
  with_jobs 4 (fun () ->
      (* many batches through one pool: the workers are spawned once and
         must drain every batch completely *)
      for round = 1 to 25 do
        let n = 17 * round in
        check_int
          (Printf.sprintf "round %d" round)
          (n * (n + 1) / 2)
          (List.fold_left ( + ) 0
             (Parallel.map (List.init n (fun i -> i + 1)) ~f:Fun.id))
      done)

let test_nested_map () =
  with_jobs 4 (fun () ->
      (* a map inside a map degrades to sequential instead of deadlocking *)
      let grid =
        Parallel.map (List.init 8 Fun.id) ~f:(fun row ->
            Parallel.map (List.init 8 Fun.id) ~f:(fun col -> (row * 8) + col))
      in
      check_int "all cells" 2016
        (List.fold_left (List.fold_left ( + )) 0 grid))

let test_parallel_runs_deterministic () =
  (* One Runner.run executed on a worker domain equals the same spec run
     sequentially. *)
  let spec =
    Exper.Runner.spec ~n_sites:3 ~txns_per_site:25 ~mpl:2 ~seed:19
      Repdb.Protocol.Atomic
  in
  let digest r =
    Exper.Runner.
      (r.committed, r.aborted, r.datagrams, r.broadcasts,
       Stats.Summary.mean r.latency_ms)
  in
  let sequential = with_jobs 1 (fun () -> Parallel.map [ spec ] ~f:Exper.Runner.run) in
  let pooled =
    with_jobs 4 (fun () ->
        Parallel.map [ spec; spec; spec; spec ] ~f:Exper.Runner.run)
  in
  List.iter
    (fun r ->
      check_bool "pooled run equals sequential run" true
        (digest r = digest (List.hd sequential)))
    pooled

let test_experiments_identical_across_pool_sizes () =
  (* The tentpole's acceptance contract: Experiments.all renders the same
     bytes with BCASTDB_JOBS=1 and a 4-domain pool. *)
  let render () =
    String.concat "\n"
      (List.map
         (fun (id, table) -> id ^ "\n" ^ Stats.Table.render table)
         (Exper.Experiments.all ~quick:true ()))
  in
  let sequential = with_jobs 1 render in
  let parallel = with_jobs 4 render in
  check_bool "byte-identical tables" true (String.equal sequential parallel)

let test_fuzz_identical_across_pool_sizes () =
  (* The chaos harness makes the same promise as Experiments.all: a fuzz
     outcome — including failure blocks and shrunk repro lines, which is
     why the planted bug is on — renders the same bytes whatever the pool
     size. *)
  let cfg =
    {
      Chaos.default_cfg with
      Chaos.txns_per_site = 20;
      planted_bug = true;
      shrink_budget = 16;
    }
  in
  let seeds = [ 0; 1; 2; 3 ] in
  let render () = Chaos.render (Chaos.fuzz cfg ~seeds) in
  let sequential = with_jobs 1 render in
  let parallel = with_jobs 8 render in
  check_bool "fuzz report has failures to compare" true
    (String.length sequential > String.length "fuzz:");
  check_bool "byte-identical fuzz reports" true
    (String.equal sequential parallel)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          tc "jobs resolution" `Quick test_jobs_resolution;
          tc "order preserved" `Quick test_map_order_preserved;
          tc "degenerate inputs" `Quick test_map_degenerate;
          tc "sequential path" `Quick test_map_sequential_path;
          tc "exception propagation" `Quick test_exception_propagation;
          tc "first exception wins" `Quick test_first_exception_wins;
          tc "pool reuse" `Quick test_pool_reuse;
          tc "nested map" `Quick test_nested_map;
        ] );
      ( "determinism",
        [
          tc "runner run on pool" `Slow test_parallel_runs_deterministic;
          tc "experiments byte-identical vs pool size" `Slow
            test_experiments_identical_across_pool_sizes;
          tc "fuzz byte-identical vs pool size" `Slow
            test_fuzz_identical_across_pool_sizes;
        ] );
    ]
