module Txn_id = Db.Txn_id
module Site_id = Net.Site_id
module History = Verify.History
module Endpoint = Broadcast.Endpoint
module Shell = Bcast_shell

let name = "atomic"

type payload =
  | Write of { txn : Txn_id.t; key : Op.key; value : Op.value }
  | Commit_req of {
      txn : Txn_id.t;
      read_versions : (Op.key * int) list;
      batched_writes : (Op.key * Op.value) list option;
          (* [Some _] under the batched-writes ablation: the write set
             rides in the commit request instead of streaming ahead *)
    }
  | Snapshot of {
      xfer : State_transfer.t;
      active : (Txn_id.t * (Op.key * Op.value) list) list;
          (* buffered writes of transactions not yet decided *)
    }

let classify = function
  | Write _ -> "write"
  | Commit_req _ -> "commitreq"
  | Snapshot _ -> "snapshot"

(* The lock manager stays unused: certification, not locking. *)
type t = (payload, unit, unit) Shell.t
type site = (payload, unit, unit) Shell.site

include Shell.Ops

(* The deterministic commit test, identical at every site because write
   sets are applied in the shared total order: a transaction passes iff
   nothing it read has been overwritten since. *)
let certify store read_versions =
  List.for_all
    (fun (key, version) -> Db.Version_store.version_of store key <= version)
    read_versions

let handle_commit_req t (st : site) ~txn ~read_versions ~batched_writes =
  let core = st.core in
  (* Under the planted bug the origin already acked, so certification is
     bypassed to keep the (wrong) answer consistent across sites. *)
  if
    t.Shell.config.Config.atomic_premature_ack
    || certify (Site_core.store core) read_versions
  then begin
    let writes =
      match batched_writes with
      | Some writes -> writes
      | None -> Site_core.buffered_writes core ~txn
    in
    Site_core.apply_writes core ~txn writes;
    Site_core.drop_buffer core ~txn;
    (* The decision point is the total-order delivery itself; at the origin
       this also closes the broadcast span. *)
    Shell.decide t st txn History.Committed
  end
  else begin
    Site_core.drop_buffer core ~txn;
    Shell.decide t st txn (History.Aborted History.Certification)
  end

let deliver t (st : site) (d : payload Endpoint.delivery) =
  match d.Endpoint.payload with
  | Write { txn; key; value } -> Site_core.buffer_write st.core ~txn key value
  | Commit_req { txn; read_versions; batched_writes } ->
    handle_commit_req t st ~txn ~read_versions ~batched_writes
  | Snapshot _ -> ()

(* Transactions whose origin left the view before their commit request was
   broadcast will never be decided; reclaim their buffers. Buffered writes
   of transactions whose commit request is already sequenced are decided
   normally by the surviving view. *)
let on_view_change _ (st : site) view =
  List.iter
    (fun txn ->
      if not (Broadcast.View.mem view txn.Txn_id.origin) then
        Site_core.drop_buffer st.core ~txn)
    (Site_core.buffered_txns st.core)

(* ---------------- state transfer ---------------- *)

let export_snapshot (st : site) =
  let active =
    List.map
      (fun txn -> (txn, Site_core.buffered_writes st.core ~txn))
      (Site_core.buffered_txns st.core)
  in
  Snapshot { xfer = State_transfer.export st.core; active }

let install_snapshot _ (st : site) = function
  | Snapshot { xfer; active } ->
    State_transfer.import st.core xfer;
    List.iter
      (fun (txn, writes) ->
        List.iter (fun (k, v) -> Site_core.buffer_write st.core ~txn k v) writes)
      active
  | Write _ | Commit_req _ -> invalid_arg "Atomic_proto: bad snapshot payload"

(* ---------------- construction and submission ---------------- *)

let create engine config ~history =
  Shell.create engine config ~history ~classify ~proto:ignore ~deliver
    ~on_view:on_view_change ~export:export_snapshot ~install:install_snapshot

let submit t ~origin spec ~on_done =
  Shell.submit t ~origin ~on_done () (fun st txn ->
      let history = t.Shell.history in
      let store = Site_core.store st.core in
      if Op.is_read_only spec then begin
        (* Snapshot reads at the current local commit index: consistent (a
           prefix of the shared total order), non-blocking, never aborted.
           A read-only spec computes nothing from the values, so only the
           reads-from edges are recorded. *)
        List.iter
          (fun key ->
            History.record_read history txn key
              ~from:(Db.Version_store.writer_of store key))
          spec.Op.reads;
        History.record_writes history txn [];
        Shell.commit_read_only t st txn
      end
      else begin
        (* Optimistic read phase: current committed values, versions
           recorded for certification. *)
        let read_results =
          List.map
            (fun key ->
              History.record_read history txn key
                ~from:(Db.Version_store.writer_of store key);
              (key, Db.Version_store.read_latest store key))
            spec.Op.reads
        in
        let read_versions =
          List.map
            (fun key -> (key, Db.Version_store.version_of store key))
            spec.Op.reads
        in
        let writes = Op.write_set spec ~read_results in
        History.record_writes history txn writes;
        (* No lock-wait or vote phase: the span runs from broadcast to the
           total-order delivery that certifies (closed by [decide] there). *)
        Shell.phase t st txn Obs.Span.Broadcast;
        let bcast cls payload =
          ignore (Endpoint.broadcast ~txn:(Shell.atxn txn) st.ep cls payload)
        in
        if t.Shell.config.Config.atomic_batch_writes then
          bcast `Total
            (Commit_req { txn; read_versions; batched_writes = Some writes })
        else begin
          List.iter
            (fun (key, value) -> bcast `Causal (Write { txn; key; value }))
            writes;
          bcast `Total (Commit_req { txn; read_versions; batched_writes = None })
        end;
        (* Planted bug: acknowledge before the total order has delivered
           (and therefore before certification could run). *)
        if t.Shell.config.Config.atomic_premature_ack then
          Shell.finish_at_origin t st txn History.Committed
      end)
