module Txn_id = Db.Txn_id

type buffer = {
  b_txn : Txn_id.t;
  mutable b_writes : (Op.key * Op.value) list;  (* reversed arrival *)
}

(* The buffer table's "no entry" value; compared physically. *)
let no_buffer = { b_txn = Txn_id.make ~origin:0 ~local:0; b_writes = [] }

(* Tables keyed by [Txn_id.key]. *)
type t = {
  site : Net.Site_id.t;
  mutable store : Db.Version_store.t;
  locks : Db.Lock_manager.t;
  history : Verify.History.t;
  waiting : (Op.key * (unit -> unit)) list Sim.Int_table.t;
      (* per transaction: each key it waits on, with the continuation to
         resume once granted; never an empty list *)
  buffers : buffer Sim.Int_table.t;
}

let rec waiter key = function
  | [] -> None
  | (k, continue) :: rest -> if k = key then Some continue else waiter key rest

let rec without key = function
  | [] -> []
  | ((k, _) as w) :: rest -> if k = key then rest else w :: without key rest

let create ?(sampler = Obs.Sampler.none) ~site ~policy ~history () =
  let waiting = Sim.Int_table.create ~vacant:[] in
  let on_grant txn key _mode =
    let k = Txn_id.key txn in
    let waits = Sim.Int_table.find waiting k in
    match waiter key waits with
    | Some continue ->
      (match without key waits with
      | [] -> Sim.Int_table.remove waiting k
      | rest -> Sim.Int_table.replace waiting k rest);
      continue ()
    | None -> ()
  in
  let locks = Db.Lock_manager.create ~policy ~on_grant () in
  if Obs.Sampler.enabled sampler then begin
    let labels = [ ("site", string_of_int site) ] in
    let reg ?kind name read =
      Obs.Sampler.register sampler ~name ~labels ?kind (fun () ->
          float_of_int (read locks))
    in
    reg "db_locks_held" Db.Lock_manager.held_total;
    reg "db_lock_waiters" Db.Lock_manager.waiting_total;
    let count name decision =
      reg ~kind:Obs.Sampler.Delta name (fun lm ->
          Db.Lock_manager.decisions lm decision)
    in
    count "db_lock_granted" Db.Lock_manager.Granted;
    count "db_lock_queued" Db.Lock_manager.Queued;
    count "db_lock_refused" Db.Lock_manager.Refused
  end;
  {
    site;
    store = Db.Version_store.create ();
    locks;
    history;
    waiting;
    buffers = Sim.Int_table.create ~vacant:no_buffer;
  }

let site t = t.site
let store t = t.store
let locks t = t.locks
let history t = t.history

let replace_store t store = t.store <- store

let wait t ~txn key continue =
  let k = Txn_id.key txn in
  Sim.Int_table.replace t.waiting k
    ((key, continue) :: without key (Sim.Int_table.find t.waiting k))

let run_reads t ~txn ~keys ~on_done =
  let rec step remaining acc =
    match remaining with
    | [] -> on_done (List.rev acc)
    | key :: rest ->
      let perform () =
        let value = Db.Version_store.read_latest t.store key in
        Verify.History.record_read t.history txn key
          ~from:(Db.Version_store.writer_of t.store key);
        step rest ((key, value) :: acc)
      in
      (match Db.Lock_manager.acquire t.locks ~txn key Db.Lock_manager.Shared with
      | Db.Lock_manager.Granted -> perform ()
      | Db.Lock_manager.Queued -> wait t ~txn key perform
      | Db.Lock_manager.Refused ->
        (* Shared requests are queued, never refused. *)
        assert false)
  in
  step keys []

let acquire_write t ~txn key ~on_granted =
  let decision =
    Db.Lock_manager.acquire t.locks ~txn key Db.Lock_manager.Exclusive
  in
  (match decision with
  | Db.Lock_manager.Queued -> wait t ~txn key on_granted
  | Db.Lock_manager.Granted | Db.Lock_manager.Refused -> ());
  decision

let buffer_write t ~txn key value =
  let k = Txn_id.key txn in
  let b = Sim.Int_table.find t.buffers k in
  if b == no_buffer then
    Sim.Int_table.replace t.buffers k { b_txn = txn; b_writes = [ (key, value) ] }
  else b.b_writes <- (key, value) :: b.b_writes

(* A buffer is newest first, and short: a key's first entry holds its last
   value, and its last entry marks its first write. *)
let rec written k = function
  | [] -> false
  | (k', _) :: older -> k' = k || written k older

let rec newest k = function
  | ((k', _) as w) :: older -> if k' = k then w else newest k older
  | [] -> assert false (* [k] is in the buffer *)

(* [f k] for each distinct key of a buffer, in first-write order. *)
let rec first_writes f acc = function
  | [] -> acc
  | (k, _) :: older ->
    first_writes f (if written k older then acc else f k :: acc) older

(* [no_buffer] holds no writes, so an absent buffer reads as empty. *)
let buffer t txn = (Sim.Int_table.find t.buffers (Txn_id.key txn)).b_writes

let buffered_writes t ~txn =
  let buf = buffer t txn in
  first_writes (fun k -> newest k buf) [] buf

let buffered_keys t ~txn = first_writes Fun.id [] (buffer t txn)

let buffered_txns t =
  Sim.Int_table.fold (fun _ b acc -> b.b_txn :: acc) t.buffers []

let drop_buffer t ~txn = Sim.Int_table.remove t.buffers (Txn_id.key txn)
let cancel_waits t txn = Sim.Int_table.remove t.waiting (Txn_id.key txn)

let forget t ~txn =
  drop_buffer t ~txn;
  cancel_waits t txn

let apply_writes t ~txn writes =
  ignore (Db.Version_store.apply t.store ~writer:txn writes);
  Verify.History.record_apply t.history ~site:t.site txn

let apply_commit t ~txn =
  apply_writes t ~txn (buffered_writes t ~txn);
  forget t ~txn;
  Db.Lock_manager.release_all t.locks txn

let abort_local t ~txn =
  forget t ~txn;
  Db.Lock_manager.release_all t.locks txn

let reset t =
  Db.Lock_manager.clear t.locks;
  Sim.Int_table.clear t.waiting;
  Sim.Int_table.clear t.buffers
