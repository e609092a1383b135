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
  cells : cell Db.Txn_id.Tbl.t;
  mutable order : Db.Txn_id.t list;  (* reversed begin order *)
  applies : (Net.Site_id.t, Db.Txn_id.t list ref) Hashtbl.t;  (* reversed *)
}

let create () =
  { cells = Db.Txn_id.Tbl.create 256; order = []; applies = Hashtbl.create 16 }

let begin_txn t txn ~origin =
  if not (Db.Txn_id.Tbl.mem t.cells txn) then begin
    Db.Txn_id.Tbl.add t.cells txn
      { c_txn = txn; c_origin = origin; c_reads = []; c_writes = [];
        c_outcome = None };
    t.order <- txn :: t.order
  end

let cell t txn =
  match Db.Txn_id.Tbl.find_opt t.cells txn with
  | Some c -> c
  | None -> invalid_arg "History: unknown transaction (begin_txn missing)"

let record_read t txn k ~from =
  let c = cell t txn in
  c.c_reads <- { read_key = k; read_from = from } :: c.c_reads

let record_writes t txn writes =
  let c = cell t txn in
  c.c_writes <- writes

let record_outcome t txn outcome =
  let c = cell t txn in
  if c.c_outcome = None then c.c_outcome <- Some outcome

let record_apply t ~site txn =
  match Hashtbl.find_opt t.applies site with
  | Some l -> l := txn :: !l
  | None -> Hashtbl.add t.applies site (ref [ txn ])

let reset_applies t ~site = Hashtbl.remove t.applies site

type apply_log = Db.Txn_id.t list  (* reversed *)

let apply_log t ~site =
  match Hashtbl.find_opt t.applies site with Some l -> !l | None -> []

let adopt_apply_log t ~site = function
  | [] -> reset_applies t ~site
  | log -> Hashtbl.replace t.applies site (ref log)

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
  Option.map freeze (Db.Txn_id.Tbl.find_opt t.cells txn)

let apply_order t ~site = List.rev (apply_log t ~site)

let sites_applied t =
  Hashtbl.fold (fun s _ acc -> s :: acc) t.applies []
  |> List.sort Net.Site_id.compare

let count_outcomes t =
  List.fold_left
    (fun (c, a, u) r ->
      match r.outcome with
      | Some Committed -> (c + 1, a, u)
      | Some (Aborted _) -> (c, a + 1, u)
      | None -> (c, a, u + 1))
    (0, 0, 0) (txns t)
