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

val metrics_json : Registry.t -> string
(** The registry's {!Registry.dump} as one JSON document
    ([{"stream":"metrics","schema":1,"series":[...]}]): counters and
    gauges with their value, histograms with count/sum/mean, the standard
    percentiles and their non-empty buckets (the overflow bound renders as
    the string ["+inf"]). Series order is the dump's canonical
    (name, labels) order, so the document is deterministic. *)

val json_escape : string -> string
(** The body of a JSON string literal: quotes, backslashes and control
    characters escaped. *)

val json_float : float -> string
(** A JSON number in [%g] form; infinities and NaN, which JSON numbers
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
