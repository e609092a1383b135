type kind = Gauge | Delta

type probe = {
  p_name : string;
  p_labels : (string * string) list;  (* sorted by key *)
  p_kind : kind;
  p_read : unit -> float;
  p_initial : float;
  mutable p_last : float;  (* Delta: cumulative value at the last tick *)
}

type t = {
  on : bool;
  interval : Sim.Time.t;
  mutable probes : probe list;  (* reversed registration order *)
  mutable n_probes : int;
  mutable rows : (Sim.Time.t * float array) list;  (* reversed *)
  mutable ticked : bool;
  mutable attached : bool;
}

let none =
  (* never mutated: every recording entry point checks [on] first *)
  {
    on = false;
    interval = Sim.Time.zero;
    probes = [];
    n_probes = 0;
    rows = [];
    ticked = false;
    attached = false;
  }

let create ~interval () =
  if Sim.Time.compare interval Sim.Time.zero <= 0 then
    invalid_arg "Sampler.create: interval must be positive";
  {
    on = true;
    interval;
    probes = [];
    n_probes = 0;
    rows = [];
    ticked = false;
    attached = false;
  }

let enabled t = t.on
let interval t = t.interval

let register t ~name ?(labels = []) ?(kind = Gauge) read =
  if t.on then begin
    if t.ticked then
      invalid_arg "Sampler.register: probes must be registered before the \
                   first tick";
    let initial = match kind with Gauge -> 0.0 | Delta -> read () in
    t.probes <-
      {
        p_name = name;
        p_labels =
          List.sort (fun (a, _) (b, _) -> String.compare a b) labels;
        p_kind = kind;
        p_read = read;
        p_initial = initial;
        p_last = initial;
      }
      :: t.probes;
    t.n_probes <- t.n_probes + 1
  end

let tick t ~at =
  if t.on then begin
    t.ticked <- true;
    let row = Array.make t.n_probes 0.0 in
    (* the probe list is in reversed registration order: fill backwards so
       row indices match [probes] order *)
    let i = ref t.n_probes in
    List.iter
      (fun p ->
        decr i;
        let v = p.p_read () in
        row.(!i) <-
          (match p.p_kind with
          | Gauge -> v
          | Delta ->
            let d = v -. p.p_last in
            p.p_last <- v;
            d))
      t.probes;
    t.rows <- (at, row) :: t.rows
  end

let attach t engine =
  if t.on && not t.attached then begin
    t.attached <- true;
    let rec loop () =
      tick t ~at:(Sim.Engine.now engine);
      ignore (Sim.Engine.schedule engine ~delay:t.interval loop)
    in
    (* first tick as a scheduled event at the current instant, so it runs
       after every callback already scheduled for this time — and, more
       importantly, after every layer has registered its probes *)
    ignore (Sim.Engine.schedule engine ~delay:Sim.Time.zero loop)
  end

let probes t = List.rev_map (fun p -> (p.p_name, p.p_labels)) t.probes
let samples t = List.rev t.rows

let last_values t =
  match t.rows with
  | [] -> []
  | (_, row) :: _ -> List.mapi (fun i p -> (p, row.(i))) (probes t)

let final_values t =
  List.rev_map
    (fun p ->
      let v =
        match p.p_kind with
        | Gauge -> p.p_read ()
        | Delta -> p.p_read () -. p.p_initial
      in
      ((p.p_name, p.p_labels), v))
    t.probes

(* ------------------------------------------------------------------ *)
(* Export *)

let kind_name = function Gauge -> "gauge" | Delta -> "delta"

let header_json t =
  let probe_json p =
    Export.series_head ~name:p.p_name ~labels:p.p_labels
      ~kind:(kind_name p.p_kind)
    ^ "}"
  in
  Printf.sprintf
    "{\"stream\":\"series\",\"schema\":1,\"interval_us\":%d,\"probes\":[%s]}"
    (Sim.Time.to_us t.interval)
    (String.concat "," (List.rev_map probe_json t.probes))

let to_jsonl t =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf (header_json t);
  Buffer.add_char buf '\n';
  List.iter
    (fun (at, row) ->
      Buffer.add_string buf
        (Printf.sprintf "{\"stream\":\"series\",\"ts_us\":%d,\"values\":[%s]}"
           (Sim.Time.to_us at)
           (String.concat ","
              (Array.to_list (Array.map Export.json_float row))));
      Buffer.add_char buf '\n')
    (samples t);
  Buffer.contents buf

let column_name (name, labels) =
  match labels with
  | [] -> name
  | labels ->
    name ^ "{"
    ^ String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
    ^ "}"

let to_csv t =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "ts_us";
  List.iter
    (fun p ->
      Buffer.add_char buf ',';
      Buffer.add_string buf (column_name p))
    (probes t);
  Buffer.add_char buf '\n';
  List.iter
    (fun (at, row) ->
      Buffer.add_string buf (string_of_int (Sim.Time.to_us at));
      Array.iter
        (fun v ->
          Buffer.add_char buf ',';
          Buffer.add_string buf (Export.float_repr v))
        row;
      Buffer.add_char buf '\n')
    (samples t);
  Buffer.contents buf

let write_file t ~path =
  let contents =
    if Filename.check_suffix path ".csv" then to_csv t else to_jsonl t
  in
  let oc = open_out path in
  output_string oc contents;
  close_out oc
