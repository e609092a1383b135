let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* One Perfetto thread per transaction, inside the origin's process; the
   local counter is per-origin so this encoding cannot collide. *)
let tid (e : Span.event) =
  if e.Span.origin < 0 then 0 else (e.Span.origin * 1_000_000) + e.Span.local

let chrome_event (e : Span.event) =
  let name = Span.phase_name e.Span.phase in
  let args =
    let txn =
      match Span.txn_string e with
      | Some s -> Printf.sprintf "\"txn\":\"%s\"" s
      | None -> "\"txn\":null"
    in
    if e.Span.note = "" then txn
    else Printf.sprintf "%s,\"note\":\"%s\"" txn (json_escape e.Span.note)
  in
  match e.Span.kind with
  | Span.Begin | Span.End ->
    Printf.sprintf
      "{\"name\":\"%s\",\"cat\":\"txn\",\"ph\":\"%s\",\"ts\":%d,\"pid\":%d,\"tid\":%d,\"args\":{%s}}"
      name (Span.kind_name e.Span.kind)
      (Sim.Time.to_us e.Span.at)
      e.Span.site (tid e) args
  | Span.Instant ->
    Printf.sprintf
      "{\"name\":\"%s\",\"cat\":\"txn\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%d,\"pid\":%d,\"tid\":%d,\"args\":{%s}}"
      name
      (Sim.Time.to_us e.Span.at)
      e.Span.site (tid e) args

let chrome_trace ?(objects = []) events =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let emit line =
    if !first then first := false else Buffer.add_string buf ",";
    Buffer.add_string buf "\n";
    Buffer.add_string buf line
  in
  (* name each site's process once *)
  let sites =
    List.sort_uniq compare (List.map (fun e -> e.Span.site) events)
  in
  List.iter
    (fun site ->
      emit
        (Printf.sprintf
           "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":\"site-%d\"}}"
           site site))
    sites;
  List.iter (fun e -> emit (chrome_event e)) events;
  List.iter emit objects;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

let span_to_json (e : Span.event) =
  Printf.sprintf
    "{\"stream\":\"span\",\"ts_us\":%d,\"site\":%d,\"txn\":%s,\"phase\":\"%s\",\"kind\":\"%s\",\"note\":\"%s\"}"
    (Sim.Time.to_us e.Span.at)
    e.Span.site
    (match Span.txn_string e with
    | Some s -> Printf.sprintf "\"%s\"" s
    | None -> "null")
    (Span.phase_name e.Span.phase)
    (Span.kind_name e.Span.kind)
    (json_escape e.Span.note)

let jsonl ?(extra = []) events =
  let span_lines =
    List.map (fun e -> (Sim.Time.to_us e.Span.at, span_to_json e)) events
  in
  (* stable merge by timestamp: within a tie, span lines keep their
     emission order and extra lines theirs *)
  let lines =
    List.stable_sort (fun (a, _) (b, _) -> compare a b) (span_lines @ extra)
  in
  let buf = Buffer.create 65536 in
  List.iter
    (fun (_, line) ->
      Buffer.add_string buf line;
      Buffer.add_char buf '\n')
    lines;
  Buffer.contents buf

(* Integral values below 2^53 are exact in plain digits. Any other finite
   float reads back from 17 significant digits, and from 15 whenever some
   decimal of at most 15 digits does, so the first of 15, 16 and 17 that
   reads back is the shortest. *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 0x1p53 then Printf.sprintf "%.0f" f
  else if not (Float.is_finite f) then Printf.sprintf "%g" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s
    else
      let s = Printf.sprintf "%.16g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f

(* JSON numbers cannot be inf/nan. *)
let json_float f =
  if Float.is_finite f then float_repr f
  else if f > 0.0 then "\"+inf\""
  else if f < 0.0 then "\"-inf\""
  else "\"nan\""

let series_head ~name ~labels ~kind =
  Printf.sprintf "{\"name\":\"%s\",\"labels\":{%s},\"kind\":\"%s\""
    (json_escape name)
    (String.concat ","
       (List.map
          (fun (k, v) ->
            Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
          labels))
    kind

type metric = Counter of int | Gauge of float

let metrics_json series =
  let series_json ((name, labels), metric) =
    let kind, value =
      match metric with
      | Counter n -> ("counter", string_of_int n)
      | Gauge v -> ("gauge", json_float v)
    in
    Printf.sprintf "%s,\"value\":%s}" (series_head ~name ~labels ~kind) value
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"stream\":\"metrics\",\"schema\":1,\"series\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n";
      Buffer.add_string buf (series_json s))
    (List.stable_sort (fun (a, _) (b, _) -> compare a b) series);
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let validate events =
  let open_spans = Hashtbl.create 256 in
  let describe (e : Span.event) =
    Format.asprintf "%a" Span.pp e
  in
  let rec go last = function
    | [] ->
      if Hashtbl.length open_spans = 0 then Ok ()
      else
        Error
          (Printf.sprintf "%d span(s) left open at end of trace"
             (Hashtbl.length open_spans))
    | (e : Span.event) :: rest ->
      if Sim.Time.( < ) e.Span.at last then
        Error ("timestamp went backwards at: " ^ describe e)
      else begin
        let key = (e.Span.origin, e.Span.local, e.Span.site) in
        match e.Span.kind with
        | Span.Begin ->
          if Hashtbl.mem open_spans key then
            Error ("begin while a span is already open: " ^ describe e)
          else begin
            Hashtbl.add open_spans key ();
            go e.Span.at rest
          end
        | Span.End ->
          if Hashtbl.mem open_spans key then begin
            Hashtbl.remove open_spans key;
            go e.Span.at rest
          end
          else Error ("end without a matching begin: " ^ describe e)
        | Span.Instant -> go e.Span.at rest
      end
  in
  go Sim.Time.zero events

let write_file ~path ?extra ?objects events =
  let contents =
    if Filename.check_suffix path ".jsonl" then jsonl ?extra events
    else chrome_trace ?objects events
  in
  let oc = open_out path in
  output_string oc contents;
  close_out oc
