(** Trace exporters: Chrome trace-event JSON (Perfetto-loadable) and JSON
    Lines.

    Chrome mapping: each site is a process ([pid] = site, named
    ["site-N"]), each transaction a thread within its {e origin's} process
    for span events ([tid] encodes the Txn_id), phases are [B]/[E] duration
    events and decide/apply/submit are thread-scoped instants — so a
    Perfetto timeline shows one lane per transaction with its lock-wait /
    broadcast / vote-collect segments, and decision instants on every
    replica. Timestamps are the simulator's microseconds verbatim. *)

val chrome_trace : ?objects:string list -> Span.event list -> string
(** A complete JSON object ([{"traceEvents":[...]}]). Events must be
    balanced — run {!validate} first, or produce them via {!Recorder}
    (balanced by construction once [close_dangling] ran). [objects] are
    complete trace-event JSON objects appended verbatim after the span
    events — the critical-path profiler's flow arrows
    ([ph]:"s"/"t"/"f") ride along this way. *)

val jsonl : ?extra:(int * string) list -> Span.event list -> string
(** One JSON object per line; span lines carry ["stream":"span"].
    [extra] lines — (timestamp in µs, complete JSON object) pairs, e.g.
    [Audit.Log.export_lines] — are merged in by timestamp, so the streams
    correlate in one file (ties keep each stream's own emission order). *)

val series_head :
  name:string -> labels:(string * string) list -> kind:string -> string
(** The unclosed JSON object [{"name":…,"labels":{…},"kind":…] that a
    series file's probe and a metrics document's entry both start with;
    the caller adds any further fields and the closing brace. *)

type metric = Counter of int | Gauge of float

val metrics_json : ((string * (string * string) list) * metric) list -> string
(** One JSON document ([{"stream":"metrics","schema":1,"series":[...]}])
    with one entry per (name, labels) series: its kind, [counter] or
    [gauge], and its value. Series are sorted by (name, labels), so the
    document does not depend on the order they are given in. Labels are
    written in the order given. *)

val json_escape : string -> string
(** The body of a JSON string literal: quotes, backslashes and control
    characters escaped. *)

val float_repr : float -> string
(** A float that reads back exactly: integral values of magnitude below
    2{^53} in plain digits, other finite values in the fewest significant
    digits that [float_of_string] maps back to the same float. Non-finite
    values print as [%g] does ([inf], [-inf], [nan]). *)

val json_float : float -> string
(** {!float_repr} as a JSON number; infinities and NaN, which JSON numbers
    cannot express, become the strings ["+inf"], ["-inf"] and ["nan"]. *)

val validate : Span.event list -> (unit, string) result
(** Structural checks an exported trace must pass: non-decreasing
    timestamps in emission order, every [End] matching an open [Begin] of
    the same (txn, site), and nothing left open at the end. *)

val write_file :
  path:string ->
  ?extra:(int * string) list ->
  ?objects:string list ->
  Span.event list ->
  unit
(** Dispatch on extension: [.jsonl] gets {!jsonl}, anything else Chrome
    trace JSON ([extra] is ignored there — Chrome has no place for it;
    [objects] only applies to the Chrome form). *)
