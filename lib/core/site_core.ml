module Txn_id = Db.Txn_id

type t = {
  site : Net.Site_id.t;
  mutable store : Db.Version_store.t;
  locks : Db.Lock_manager.t;
  history : Verify.History.t;
  (* (txn, key) -> resume-once-granted continuation *)
  waiting : (Txn_id.t * Op.key, unit -> unit) Hashtbl.t;
  buffers : (Op.key * Op.value) list ref Txn_id.Tbl.t;  (* reversed arrival *)
}

let create ?(sampler = Obs.Sampler.none) ~site ~policy ~history () =
  let waiting = Hashtbl.create 32 in
  let on_grant txn key _mode =
    match Hashtbl.find_opt waiting (txn, key) with
    | Some continue ->
      Hashtbl.remove waiting (txn, key);
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
    buffers = Txn_id.Tbl.create 32;
  }

let site t = t.site
let store t = t.store
let locks t = t.locks
let history t = t.history

let replace_store t store = t.store <- store

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
      | Db.Lock_manager.Queued -> Hashtbl.replace t.waiting (txn, key) perform
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
  | Db.Lock_manager.Queued -> Hashtbl.replace t.waiting (txn, key) on_granted
  | Db.Lock_manager.Granted | Db.Lock_manager.Refused -> ());
  decision

let buffer_write t ~txn key value =
  match Txn_id.Tbl.find_opt t.buffers txn with
  | Some l -> l := (key, value) :: !l
  | None -> Txn_id.Tbl.add t.buffers txn (ref [ (key, value) ])

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

let buffered_writes t ~txn =
  match Txn_id.Tbl.find_opt t.buffers txn with
  | None -> []
  | Some l ->
    let buf = !l in
    first_writes (fun k -> newest k buf) [] buf

let buffered_keys t ~txn =
  match Txn_id.Tbl.find_opt t.buffers txn with
  | None -> []
  | Some l -> first_writes Fun.id [] !l

let buffered_txns t = Txn_id.Tbl.fold (fun txn _ acc -> txn :: acc) t.buffers []

let drop_buffer t ~txn = Txn_id.Tbl.remove t.buffers txn

let cancel_waits t txn =
  let stale =
    Hashtbl.fold
      (fun (id, key) _ acc -> if Txn_id.equal id txn then (id, key) :: acc else acc)
      t.waiting []
  in
  List.iter (Hashtbl.remove t.waiting) stale

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
  Hashtbl.reset t.waiting;
  Txn_id.Tbl.reset t.buffers
