type t = {
  on : bool;
  mutable events : Span.event list;  (* reversed emission order *)
  open_spans : (int * int * int, Span.phase) Hashtbl.t;
      (* (origin, local, site) -> currently open phase *)
}

let none =
  (* never mutated: every recording entry point checks [on] first *)
  { on = false; events = []; open_spans = Hashtbl.create 1 }

let create () = { on = true; events = []; open_spans = Hashtbl.create 256 }

let emit t ~at ~site ~origin ~local ~phase ~kind ~note =
  t.events <-
    { Span.at; site; origin; local; phase; kind; note } :: t.events

let submit t ~at ~site ~origin ~local =
  if t.on then
    emit t ~at ~site ~origin ~local ~phase:Span.Submit ~kind:Span.Instant
      ~note:""

let close_open t ~at ~site ~origin ~local =
  let key = (origin, local, site) in
  match Hashtbl.find_opt t.open_spans key with
  | Some phase ->
    Hashtbl.remove t.open_spans key;
    emit t ~at ~site ~origin ~local ~phase ~kind:Span.End ~note:""
  | None -> ()

let phase_begin t ~at ~site ~origin ~local phase =
  if t.on then begin
    close_open t ~at ~site ~origin ~local;
    Hashtbl.replace t.open_spans (origin, local, site) phase;
    emit t ~at ~site ~origin ~local ~phase ~kind:Span.Begin ~note:""
  end

let decide t ~at ~site ~origin ~local ~committed =
  if t.on then begin
    close_open t ~at ~site ~origin ~local;
    emit t ~at ~site ~origin ~local ~phase:Span.Decide ~kind:Span.Instant
      ~note:(if committed then "commit" else "abort")
  end

let apply t ~at ~site ~origin ~local =
  if t.on then
    emit t ~at ~site ~origin ~local ~phase:Span.Apply ~kind:Span.Instant
      ~note:""

let close_dangling t ~at =
  if t.on then begin
    let still_open =
      Hashtbl.fold (fun key phase acc -> (key, phase) :: acc) t.open_spans []
      |> List.sort compare
    in
    List.iter
      (fun ((origin, local, site), phase) ->
        Hashtbl.remove t.open_spans (origin, local, site);
        emit t ~at ~site ~origin ~local ~phase ~kind:Span.End
          ~note:"dangling")
      still_open
  end

let events t = List.rev t.events
