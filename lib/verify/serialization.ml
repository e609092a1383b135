module Txn_id = Db.Txn_id

type violation =
  | Read_from_uncommitted of { reader : Txn_id.t; writer : Txn_id.t }
  | Applied_but_aborted of Txn_id.t
  | Divergent_install_order of {
      key : int;
      site_a : Net.Site_id.t;
      site_b : Net.Site_id.t;
    }
  | Cycle of Txn_id.t list

let pp_violation ppf = function
  | Read_from_uncommitted { reader; writer } ->
    Format.fprintf ppf "%a read from uncommitted %a" Txn_id.pp reader Txn_id.pp
      writer
  | Applied_but_aborted txn ->
    Format.fprintf ppf "%a was applied at some site but aborted at its origin"
      Txn_id.pp txn
  | Divergent_install_order { key; site_a; site_b } ->
    Format.fprintf ppf "sites %a and %a installed writers of key %d in different orders"
      Net.Site_id.pp site_a Net.Site_id.pp site_b key
  | Cycle cycle ->
    Format.fprintf ppf "serialization cycle: %s"
      (String.concat " -> " (List.map Txn_id.to_string cycle))

(* One sequence must be a prefix of the other: a site that lags has seen
   fewer installs, but never a different order. *)
let rec consistent_prefix a b =
  match a, b with
  | [], _ | _, [] -> true
  | x :: a', y :: b' -> Txn_id.equal x y && consistent_prefix a' b'

(* Every site's apply log, read once. Each entry whose transaction is in
   [keys_of] is filed under each distinct key it wrote, so the result maps
   a key to its writer sequence at every site that installed one:
   [(site, writers newest first)], newest site first. Also returns the set
   of transactions applied anywhere. *)
let index_applies history ~keys_of =
  let applied = Txn_id.Tbl.create 1024 in
  let by_key = Hashtbl.create 1024 in
  List.iter
    (fun site ->
      List.iter
        (fun txn ->
          Txn_id.Tbl.replace applied txn ();
          match Txn_id.Tbl.find_opt keys_of txn with
          | None -> ()
          | Some keys ->
            List.iter
              (fun key ->
                match Hashtbl.find_opt by_key key with
                | Some ((s, seq) :: rest) when Net.Site_id.equal s site ->
                  Hashtbl.replace by_key key ((s, txn :: seq) :: rest)
                | Some sequences ->
                  Hashtbl.replace by_key key ((site, [ txn ]) :: sequences)
                | None -> Hashtbl.add by_key key [ (site, [ txn ]) ])
              keys)
        (History.apply_order history ~site))
    (History.sites_applied history);
  (applied, by_key)

let check history =
  let violations = ref [] in
  let txns = History.txns history in
  (* Keys written per transaction that may have committed: a transaction
     installed somewhere is committed unless its origin reported an abort. *)
  let keys_of = Txn_id.Tbl.create 1024 in
  List.iter
    (fun r ->
      match r.History.outcome with
      | Some (History.Aborted _) -> ()
      | Some History.Committed | None ->
        Txn_id.Tbl.replace keys_of r.History.txn
          (List.sort_uniq Int.compare (List.map fst r.History.writes)))
    txns;
  let applied, by_key = index_applies history ~keys_of in
  (* Committed = reported committed, or installed somewhere (origin may
     have died before learning the group's decision). Installed + reported
     aborted is a protocol bug. *)
  let committed =
    List.filter
      (fun r ->
        match r.History.outcome with
        | Some History.Committed -> true
        | Some (History.Aborted _) ->
          if Txn_id.Tbl.mem applied r.History.txn then
            violations := Applied_but_aborted r.History.txn :: !violations;
          false
        | None -> Txn_id.Tbl.mem applied r.History.txn)
      txns
  in
  let committed_set = Txn_id.Tbl.create 1024 in
  List.iter (fun r -> Txn_id.Tbl.replace committed_set r.History.txn ()) committed;
  (* 1. reads-from must point at committed transactions *)
  List.iter
    (fun r ->
      List.iter
        (fun { History.read_from; _ } ->
          match read_from with
          | Some w when not (Txn_id.Tbl.mem committed_set w) ->
            violations :=
              Read_from_uncommitted { reader = r.History.txn; writer = w }
              :: !violations
          | Some _ | None -> ())
        r.History.reads)
    committed;
  (* 2. reconstruct a version order per key and check sites agree; the
     version order is the first longest sequence in site order *)
  let edges = ref [] in
  let add_edge a b = if not (Txn_id.equal a b) then edges := (a, b) :: !edges in
  let first_writer = Hashtbl.create 1024 in
  let next_writer = Hashtbl.create 1024 in
  Hashtbl.fold (fun key _ acc -> key :: acc) by_key []
  |> List.sort Int.compare
  |> List.iter (fun key ->
         let sequences =
           List.rev_map
             (fun (site, seq) -> (site, List.rev seq))
             (Hashtbl.find by_key key)
         in
         let rec cross = function
           | [] -> ()
           | (site_a, seq_a) :: rest ->
             List.iter
               (fun (site_b, seq_b) ->
                 if not (consistent_prefix seq_a seq_b) then
                   violations :=
                     Divergent_install_order { key; site_a; site_b }
                     :: !violations)
               rest;
             cross rest
         in
         let longest =
           List.fold_left
             (fun best (_, seq) ->
               if List.length seq > List.length best then seq else best)
             [] sequences
         in
         (* prefixes of one sequence are pairwise consistent, so only a key
            with a sequence off the longest needs every pair compared *)
         if not
              (List.for_all
                 (fun (_, seq) -> consistent_prefix seq longest)
                 sequences)
         then cross sequences;
         (match longest with
         | first :: _ -> Hashtbl.replace first_writer key first
         | [] -> ());
         (* 3a. write-write: consecutive writers; a reader of a writer's
            version is overwritten by the writer after its first install *)
         let rec pairs = function
           | a :: (b :: _ as rest) ->
             add_edge a b;
             if not (Hashtbl.mem next_writer (key, a)) then
               Hashtbl.add next_writer (key, a) b;
             pairs rest
           | [ _ ] | [] -> ()
         in
         pairs longest);
  (* 3b. write-read and read-write *)
  List.iter
    (fun r ->
      List.iter
        (fun { History.read_key; read_from } ->
          (match read_from with
          | Some w when Txn_id.Tbl.mem committed_set w -> add_edge w r.History.txn
          | Some _ | None -> ());
          (* the writer that overwrote the version we read *)
          let overwriter =
            match read_from with
            | None -> Hashtbl.find_opt first_writer read_key
            | Some w -> Hashtbl.find_opt next_writer (read_key, w)
          in
          match overwriter with
          | Some o -> add_edge r.History.txn o
          | None -> ())
        r.History.reads)
    committed;
  (* 4. cycle detection; [find_cycle] sorts its roots and successors, so
     the witness depends only on the edge set, not on insertion order *)
  (match Db.Deadlock.find_cycle !edges with
  | Some cycle -> violations := Cycle cycle :: !violations
  | None -> ());
  List.rev !violations

let is_one_copy_serializable history = check history = []
