(* Span-instrumentation shims shared by the protocols: one line per
   lifecycle event, extracting the (origin, local) pair from the Txn_id so
   the call sites stay readable. All no-ops on a disabled recorder. *)

module Txn_id = Db.Txn_id

let submit obs ~now ~site txn =
  Obs.Recorder.submit obs ~at:now ~site ~origin:txn.Txn_id.origin
    ~local:txn.Txn_id.local

let phase obs ~now ~site txn ph =
  Obs.Recorder.phase_begin obs ~at:now ~site ~origin:txn.Txn_id.origin
    ~local:txn.Txn_id.local ph

let decide obs ~now ~site txn ~committed =
  Obs.Recorder.decide obs ~at:now ~site ~origin:txn.Txn_id.origin
    ~local:txn.Txn_id.local ~committed

let apply obs ~now ~site txn =
  Obs.Recorder.apply obs ~at:now ~site ~origin:txn.Txn_id.origin
    ~local:txn.Txn_id.local
