(* Workload generation: determinism, shape, skew, special workloads. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let profile =
  { Workload.default with Workload.n_keys = 100; reads_per_txn = 4; writes_per_txn = 3 }

let spec_shape spec =
  (spec.Repdb.Op.reads, Repdb.Op.write_set spec ~read_results:[])

let test_determinism () =
  let gen seed =
    let rng = Sim.Rng.create ~seed in
    let g = Workload.create profile ~rng in
    List.init 50 (fun _ -> spec_shape (Workload.next g))
  in
  check_bool "same seed same stream" true (gen 1 = gen 1);
  check_bool "different seed different stream" true (gen 1 <> gen 2)

let test_shapes () =
  let rng = Sim.Rng.create ~seed:3 in
  let g = Workload.create profile ~rng in
  for _ = 1 to 200 do
    let spec = Workload.next g in
    let reads, writes = spec_shape spec in
    check_int "read count" 4 (List.length reads);
    check_bool "reads distinct" true
      (List.length (List.sort_uniq compare reads) = List.length reads);
    check_bool "reads in key space" true (List.for_all (fun k -> k >= 0 && k < 100) reads);
    if not (Repdb.Op.is_read_only spec) then begin
      check_int "write count" 3 (List.length writes);
      check_bool "writes distinct" true
        (List.length (List.sort_uniq compare (List.map fst writes))
        = List.length writes);
      check_bool "values positive" true (List.for_all (fun (_, v) -> v > 0) writes)
    end
  done

let test_ro_fraction () =
  let rng = Sim.Rng.create ~seed:4 in
  let g =
    Workload.create { profile with Workload.ro_fraction = 0.5 } ~rng
  in
  let n = 4000 in
  let ro = ref 0 in
  for _ = 1 to n do
    if Repdb.Op.is_read_only (Workload.next g) then incr ro
  done;
  let f = float_of_int !ro /. float_of_int n in
  check_bool "near one half" true (f > 0.45 && f < 0.55)

let test_zipf_contention () =
  let count_hot theta =
    let rng = Sim.Rng.create ~seed:5 in
    let g = Workload.create { profile with Workload.zipf_theta = theta } ~rng in
    let hot = ref 0 in
    for _ = 1 to 2000 do
      let reads, _ = spec_shape (Workload.next g) in
      if List.exists (fun k -> k < 5) reads then incr hot
    done;
    !hot
  in
  check_bool "skew concentrates access" true (count_hot 1.2 > 2 * count_hot 0.0)

let test_tiny_keyspace () =
  let rng = Sim.Rng.create ~seed:6 in
  let g =
    Workload.create
      { profile with Workload.n_keys = 2; reads_per_txn = 5; writes_per_txn = 5 }
      ~rng
  in
  for _ = 1 to 50 do
    let reads, writes = spec_shape (Workload.next g) in
    check_bool "reads clipped" true (List.length reads <= 2);
    check_bool "writes clipped" true (List.length writes <= 2)
  done

(* A negative count would make key sampling loop forever: [create]
   refuses it, as it refuses an empty key space. *)
let test_rejects_bad_profile () =
  let rng = Sim.Rng.create ~seed:8 in
  List.iter
    (fun (label, p) ->
      check_bool label true
        (match Workload.create p ~rng with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [
      ("no keys", { profile with Workload.n_keys = 0 });
      ("negative reads", { profile with Workload.reads_per_txn = -1 });
      ("negative writes", { profile with Workload.writes_per_txn = -1 });
    ]

let test_cross_conflict () =
  let rng = Sim.Rng.create ~seed:7 in
  let a, b = Workload.cross_conflict_pair profile ~rng in
  let ra, wa = spec_shape a and rb, wb = spec_shape b in
  check_int "a one read" 1 (List.length ra);
  check_int "b one read" 1 (List.length rb);
  Alcotest.(check (list int)) "a writes what b reads" rb (List.map fst wa);
  Alcotest.(check (list int)) "b writes what a reads" ra (List.map fst wb);
  check_bool "keys differ" true (List.hd ra <> List.hd rb)

let test_single_write () =
  let spec = Workload.single_write ~key:1042 ~value:7 in
  check_bool "no reads" true (spec.Repdb.Op.reads = []);
  Alcotest.(check (list (pair int int))) "blind write" [ (1042, 7) ]
    (Repdb.Op.write_set spec ~read_results:[])

let test_op_helpers () =
  let spec =
    Repdb.Op.computed ~reads:[ 1; 2 ] ~f:(fun results ->
        List.map (fun (k, v) -> (k + 10, v + 1)) results)
  in
  check_bool "not read-only" true (not (Repdb.Op.is_read_only spec));
  Alcotest.(check (list (pair int int))) "computed writes"
    [ (11, 6); (12, 8) ]
    (Repdb.Op.write_set spec ~read_results:[ (1, 5); (2, 7) ]);
  Alcotest.(check (list (pair int int))) "duplicate keys last-wins"
    [ (1, 3) ]
    (Repdb.Op.write_set (Repdb.Op.write_only [ (1, 2); (1, 3) ]) ~read_results:[])

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "workload"
    [
      ( "generator",
        [
          tc "determinism" `Quick test_determinism;
          tc "shapes" `Quick test_shapes;
          tc "ro fraction" `Quick test_ro_fraction;
          tc "zipf contention" `Quick test_zipf_contention;
          tc "tiny key space" `Quick test_tiny_keyspace;
          tc "rejects negative counts" `Quick test_rejects_bad_profile;
        ] );
      ( "special",
        [
          tc "cross conflict pair" `Quick test_cross_conflict;
          tc "single write" `Quick test_single_write;
          tc "op helpers" `Quick test_op_helpers;
        ] );
    ]
