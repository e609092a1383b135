type key = int
type value = int

(* A key's newest version, overwritten in place. *)
type cell = {
  key : key;
  mutable value : value;
  mutable writer : Txn_id.t option;
  mutable index : int;
}

(* The empty slot, which is also the answer for an unwritten key: value 0,
   index 0, no writer. Compared physically. *)
let vacant = { key = 0; value = 0; writer = None; index = 0 }

(* Open addressing with linear probing over int keys. The length of
   [cells] is a power of two, and the table is at most half full. *)
type t = {
  mutable cells : cell array;
  mutable count : int;
  mutable commit_index : int;
}

let create () = { cells = Array.make 64 vacant; count = 0; commit_index = 0 }

let commit_index t = t.commit_index

(* Fibonacci hashing: the product's bits from 32 up mix the key's low 32
   bits, so dense and strided keys alike spread over the slots. *)
let home cells k =
  ((k * 0x1E3779B97F4A7C15) lsr 32) land (Array.length cells - 1)

(* The slot holding [k], or the vacant slot where it would go. *)
let rec probe cells k i =
  let c = cells.(i) in
  if c == vacant || c.key = k then i
  else probe cells k ((i + 1) land (Array.length cells - 1))

let slot cells k = probe cells k (home cells k)

let find t k = t.cells.(slot t.cells k)

let grow t =
  let old = t.cells in
  let cells = Array.make (2 * Array.length old) vacant in
  Array.iter (fun c -> if c != vacant then cells.(slot cells c.key) <- c) old;
  t.cells <- cells

let write t index writer (k, value) =
  let i = slot t.cells k in
  let c = t.cells.(i) in
  if c != vacant then begin
    c.value <- value;
    c.writer <- writer;
    c.index <- index
  end
  else begin
    t.cells.(i) <- { key = k; value; writer; index };
    t.count <- t.count + 1;
    if 2 * t.count > Array.length t.cells then grow t
  end

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

let keys t =
  Array.fold_left (fun acc c -> if c == vacant then acc else c.key :: acc) [] t.cells
  |> List.sort Int.compare

let fingerprint t =
  Array.fold_left
    (fun acc c -> if c == vacant then acc else acc lxor Hashtbl.hash (c.key, c.value))
    0 t.cells

type dump = t

let copy t =
  {
    t with
    cells =
      Array.map (fun c -> if c == vacant then c else { c with index = c.index }) t.cells;
  }

let snapshot = copy
let restore = copy
