type key = int
type value = int

(* A key's newest version, overwritten in place. *)
type cell = {
  mutable value : value;
  mutable writer : Txn_id.t option;
  mutable index : int;
}

(* The answer for an unwritten key — value 0, index 0, no writer — and the
   table's empty slot. *)
let vacant = { value = 0; writer = None; index = 0 }

type t = { cells : cell Sim.Int_table.t; mutable commit_index : int }

let create () = { cells = Sim.Int_table.create ~vacant; commit_index = 0 }

let commit_index t = t.commit_index

let find t k = Sim.Int_table.find t.cells k

let write t index writer (k, value) =
  let c = find t k in
  if c != vacant then begin
    c.value <- value;
    c.writer <- writer;
    c.index <- index
  end
  else Sim.Int_table.replace t.cells k { value; writer; index }

let rec write_all t index writer = function
  | [] -> ()
  | w :: rest ->
    write t index writer w;
    write_all t index writer rest

let apply t ?writer writes =
  let index = t.commit_index + 1 in
  t.commit_index <- index;
  write_all t index writer writes;
  index

let read_latest t k = (find t k).value
let version_of t k = (find t k).index
let writer_of t k = (find t k).writer

let keys t = Sim.Int_table.fold (fun k _ acc -> k :: acc) t.cells [] |> List.sort Int.compare

let fingerprint t =
  Sim.Int_table.fold (fun k c acc -> acc lxor Hashtbl.hash (k, c.value)) t.cells 0

type dump = t

let copy t =
  { t with cells = Sim.Int_table.map (fun c -> { c with index = c.index }) t.cells }

let snapshot = copy
let restore = copy
