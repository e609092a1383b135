(* perfbench: one benchmark run of one workload.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--spawned-at UNIX_TIME] [--setup-only]

   Prints human-readable lines, then one JSON object as the last line. *)

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--spawned-at T] [--setup-only]";
  exit 2

let () =
  let spawned_at = Unix.gettimeofday () in
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 in
  let trace = ref (-1) and spawned = ref spawned_at and setup_only = ref false in
  let rec parse = function
    | "--workload" :: v :: tl -> workload := v; parse tl
    | "--seed" :: v :: tl -> seed := int_of_string v; parse tl
    | "--seconds" :: v :: tl -> seconds := int_of_string v; parse tl
    | "--trace" :: v :: tl -> trace := int_of_string v; parse tl
    | "--spawned-at" :: v :: tl -> spawned := float_of_string v; parse tl
    | "--setup-only" :: tl -> setup_only := true; parse tl
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let w =
    match Workloads.find !workload with Some w -> w | None -> usage ()
  in
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  if !setup_only then
    match
      Drive.run ~spawned_at:!spawned ~setup_only:true ~mode:Drive.Untraced
        ~seed:!seed w
    with
    | exception Drive.Setup_done s ->
      for _ = 1 to 5 do
        Report.yardstick ()
      done;
      Printf.printf "raw set-up %.9fs\n%.9f\n" s (s *. Report.host_scale ())
    | _ -> exit 1
  else
    let ok =
      if !trace = 0 then Report.end_to_end ~spawned_at:!spawned ~seed:!seed
          ~seconds:!seconds w
      else Report.per_layer ~seed:!seed w
    in
    exit (if ok then 0 else 1)
