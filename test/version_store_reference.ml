(* Test oracle: the multi-version store, which kept every version ever
   written, newest first per key, in a polymorphic hash table, and answered
   reads at any past commit index. Only its newest-version answers are
   compared: [Db.Version_store] must give the same [read_latest],
   [version_of], [writer_of], [commit_index], [keys] and [fingerprint]
   after every write set (see the differential property in test_db.ml). *)

module Txn_id = Db.Txn_id

type key = int
type value = int

type version = { index : int; value : value; writer : Txn_id.t option }

type t = {
  (* per key: versions, newest first *)
  table : (key, version list) Hashtbl.t;
  mutable commit_index : int;
}

let create () = { table = Hashtbl.create 64; commit_index = 0 }

let commit_index t = t.commit_index

let apply t ?writer writes =
  t.commit_index <- t.commit_index + 1;
  List.iter
    (fun (k, v) ->
      let history = Option.value ~default:[] (Hashtbl.find_opt t.table k) in
      Hashtbl.replace t.table k
        ({ index = t.commit_index; value = v; writer } :: history))
    writes;
  t.commit_index

let read_latest t k =
  match Hashtbl.find_opt t.table k with
  | Some (v :: _) -> v.value
  | Some [] | None -> 0

let version_visible t ~index k =
  if index > t.commit_index || index < 0 then
    invalid_arg "Version_store: index out of range";
  match Hashtbl.find_opt t.table k with
  | None -> None
  | Some history -> List.find_opt (fun v -> v.index <= index) history

let read_at t ~index k =
  match version_visible t ~index k with Some v -> v.value | None -> 0

let version_of t k =
  match Hashtbl.find_opt t.table k with
  | Some (v :: _) -> v.index
  | Some [] | None -> 0

let writer_of t k =
  match Hashtbl.find_opt t.table k with
  | Some (v :: _) -> v.writer
  | Some [] | None -> None

let writer_at t ~index k =
  match version_visible t ~index k with
  | Some v -> v.writer
  | None -> None

let writer_sequence t k =
  match Hashtbl.find_opt t.table k with
  | None -> []
  | Some history -> List.rev (List.filter_map (fun v -> v.writer) history)

let keys t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.table []
  |> List.sort_uniq Int.compare

let fingerprint t =
  List.fold_left
    (fun acc k -> acc lxor Hashtbl.hash (k, read_latest t k))
    0 (keys t)

type dump = { d_entries : (key * version list) list; d_index : int }

let snapshot t =
  {
    d_entries =
      Hashtbl.fold (fun k history acc -> (k, history) :: acc) t.table []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b);
    d_index = t.commit_index;
  }

let restore dump =
  let t = { table = Hashtbl.create 64; commit_index = dump.d_index } in
  List.iter (fun (k, history) -> Hashtbl.replace t.table k history) dump.d_entries;
  t
