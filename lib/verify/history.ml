type key = int
type value = int

type abort_reason =
  | Write_conflict
  | Certification
  | Deadlock_victim
  | View_change
  | Timeout

type outcome = Committed | Aborted of abort_reason

let pp_outcome ppf = function
  | Committed -> Format.pp_print_string ppf "committed"
  | Aborted reason ->
    Format.fprintf ppf "aborted(%s)"
      (match reason with
      | Write_conflict -> "write-conflict"
      | Certification -> "certification"
      | Deadlock_victim -> "deadlock"
      | View_change -> "view-change"
      | Timeout -> "timeout")

type read_event = { read_key : key; read_from : Db.Txn_id.t option }

type txn_record = {
  txn : Db.Txn_id.t;
  origin : Net.Site_id.t;
  read_only : bool;
  reads : read_event list;
  writes : (key * value) list;
  outcome : outcome option;
}

(* Mutable accumulation form; frozen into [txn_record] on inspection. *)
type cell = {
  c_txn : Db.Txn_id.t;
  c_origin : Net.Site_id.t;
  mutable c_reads : read_event list;  (* reversed *)
  mutable c_writes : (key * value) list;
  mutable c_outcome : outcome option;
}

type t = {
  cells : cell Sim.Int_table.t;  (* keyed by [Txn_id.key] *)
  mutable order : Db.Txn_id.t list;  (* reversed begin order *)
  applies : Db.Txn_id.t list array;  (* per site, reversed; [] if none *)
}

(* The cells table's "no entry" value; compared physically. *)
let no_cell =
  { c_txn = Db.Txn_id.make ~origin:0 ~local:0; c_origin = 0; c_reads = [];
    c_writes = []; c_outcome = None }

let create () =
  {
    cells = Sim.Int_table.create ~vacant:no_cell;
    order = [];
    applies = Array.make Net.Site_id.max_sites [];
  }

let begin_txn t txn ~origin =
  let k = Db.Txn_id.key txn in
  if Sim.Int_table.find t.cells k == no_cell then begin
    Sim.Int_table.replace t.cells k
      { c_txn = txn; c_origin = origin; c_reads = []; c_writes = [];
        c_outcome = None };
    t.order <- txn :: t.order
  end

let cell t txn =
  let c = Sim.Int_table.find t.cells (Db.Txn_id.key txn) in
  if c == no_cell then
    invalid_arg "History: unknown transaction (begin_txn missing)";
  c

let record_read t txn k ~from =
  let c = cell t txn in
  c.c_reads <- { read_key = k; read_from = from } :: c.c_reads

let record_writes t txn writes =
  let c = cell t txn in
  c.c_writes <- writes

let record_outcome t txn outcome =
  let c = cell t txn in
  if c.c_outcome = None then c.c_outcome <- Some outcome

let record_apply t ~site txn = t.applies.(site) <- txn :: t.applies.(site)
let reset_applies t ~site = t.applies.(site) <- []

type apply_log = Db.Txn_id.t list  (* reversed *)

let apply_log t ~site = t.applies.(site)
let adopt_apply_log t ~site log = t.applies.(site) <- log

let freeze c =
  {
    txn = c.c_txn;
    origin = c.c_origin;
    read_only = c.c_writes = [];
    reads = List.rev c.c_reads;
    writes = c.c_writes;
    outcome = c.c_outcome;
  }

let txns t = List.rev_map (fun id -> freeze (cell t id)) t.order

let committed t =
  List.filter (fun r -> r.outcome = Some Committed) (txns t)

let aborted t =
  List.filter
    (fun r -> match r.outcome with Some (Aborted _) -> true | _ -> false)
    (txns t)

let undecided t = List.filter (fun r -> r.outcome = None) (txns t)

let find t txn =
  let c = Sim.Int_table.find t.cells (Db.Txn_id.key txn) in
  if c == no_cell then None else Some (freeze c)

let apply_order t ~site = List.rev (apply_log t ~site)

let sites_applied t =
  List.filter (fun s -> t.applies.(s) <> []) (Net.Site_id.all ~n:Net.Site_id.max_sites)

let count_outcomes t =
  List.fold_left
    (fun (c, a, u) r ->
      match r.outcome with
      | Some Committed -> (c + 1, a, u)
      | Some (Aborted _) -> (c, a + 1, u)
      | None -> (c, a, u + 1))
    (0, 0, 0) (txns t)
