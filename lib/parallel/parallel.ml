(* A fixed pool of worker domains executing one batch of indexed tasks at a
   time. Work distribution is a shared atomic cursor over the batch's index
   space: domains race to fetch-and-add the next index, so load balances
   even when task costs are wildly uneven (E7's long failover runs next to
   E9's short primitive measurements). Completion is tracked with a plain
   counter under the batch's own mutex so the submitting domain can block
   on a condition variable without spinning. *)

type batch = {
  total : int;
  next : int Atomic.t;
  run : int -> unit;  (* must not raise; captures results and exceptions *)
  fin_mutex : Mutex.t;
  fin_cond : Condition.t;
  mutable unfinished : int;  (* guarded by fin_mutex *)
}

type pool = {
  size : int;  (* total parallelism, including the submitting domain *)
  mutex : Mutex.t;
  wake : Condition.t;
  mutable generation : int;  (* bumped when a batch is posted *)
  mutable batch : batch option;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
}

(* Workers flag their domain so a nested [map] from inside a task runs
   sequentially instead of posting a batch nobody will finish. *)
let inside_worker = Domain.DLS.new_key (fun () -> false)

let take_tasks b =
  let rec loop () =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < b.total then begin
      b.run i;
      Mutex.lock b.fin_mutex;
      b.unfinished <- b.unfinished - 1;
      if b.unfinished = 0 then Condition.signal b.fin_cond;
      Mutex.unlock b.fin_mutex;
      loop ()
    end
  in
  loop ()

let rec worker_loop pool seen_generation =
  Mutex.lock pool.mutex;
  while pool.generation = seen_generation && not pool.stopping do
    Condition.wait pool.wake pool.mutex
  done;
  let generation = pool.generation in
  let batch = pool.batch in
  let stopping = pool.stopping in
  Mutex.unlock pool.mutex;
  if not stopping then begin
    (match batch with Some b -> take_tasks b | None -> ());
    worker_loop pool generation
  end

let create_pool size =
  let pool =
    {
      size;
      mutex = Mutex.create ();
      wake = Condition.create ();
      generation = 0;
      batch = None;
      stopping = false;
      workers = [];
    }
  in
  pool.workers <-
    List.init (size - 1) (fun _ ->
        Domain.spawn (fun () ->
            Domain.DLS.set inside_worker true;
            worker_loop pool 0));
  pool

let stop_pool pool =
  Mutex.lock pool.mutex;
  pool.stopping <- true;
  Condition.broadcast pool.wake;
  Mutex.unlock pool.mutex;
  List.iter Domain.join pool.workers;
  pool.workers <- []

(* ------------------------------------------------------------------ *)
(* Pool lifetime and sizing *)

(* OCaml 5.1's Max_domains: Domain.spawn fails past it. *)
let max_jobs = 128

let override = ref None
let the_pool = ref None

let env_jobs () =
  match Sys.getenv_opt "BCASTDB_JOBS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 && n <= max_jobs -> Some n
    | Some _ | None -> None)

let jobs () =
  match !override with
  | Some n -> n
  | None -> (
    match env_jobs () with
    | Some n -> n
    | None -> Stdlib.max 1 (Domain.recommended_domain_count ()))

let shutdown () =
  match !the_pool with
  | None -> ()
  | Some pool ->
    the_pool := None;
    stop_pool pool

let () = at_exit shutdown

let set_jobs n =
  let n = Option.map (Stdlib.max 1) n in
  override := n;
  match !the_pool with
  | Some pool when pool.size <> jobs () -> shutdown ()
  | Some _ | None -> ()

let obtain_pool size =
  match !the_pool with
  | Some pool when pool.size = size -> pool
  | existing ->
    (match existing with Some _ -> shutdown () | None -> ());
    let pool = create_pool size in
    the_pool := Some pool;
    pool

(* ------------------------------------------------------------------ *)

type 'b slot =
  | Empty
  | Value of 'b
  | Raised of exn * Printexc.raw_backtrace

let map list ~f =
  let size = jobs () in
  if size <= 1 || Domain.DLS.get inside_worker then List.map f list
  else begin
    match list with
    | [] -> []
    | [ x ] -> [ f x ]
    | _ ->
      let items = Array.of_list list in
      let total = Array.length items in
      let results = Array.make total Empty in
      let batch =
        {
          total;
          next = Atomic.make 0;
          run =
            (fun i ->
              results.(i) <-
                (try Value (f items.(i))
                 with e -> Raised (e, Printexc.get_raw_backtrace ())));
          fin_mutex = Mutex.create ();
          fin_cond = Condition.create ();
          unfinished = total;
        }
      in
      let pool = obtain_pool size in
      Mutex.lock pool.mutex;
      pool.generation <- pool.generation + 1;
      pool.batch <- Some batch;
      Condition.broadcast pool.wake;
      Mutex.unlock pool.mutex;
      (* The submitting domain works the same cursor as everyone else. *)
      take_tasks batch;
      Mutex.lock batch.fin_mutex;
      while batch.unfinished > 0 do
        Condition.wait batch.fin_cond batch.fin_mutex
      done;
      Mutex.unlock batch.fin_mutex;
      Mutex.lock pool.mutex;
      if pool.batch == Some batch then pool.batch <- None;
      Mutex.unlock pool.mutex;
      Array.to_list
        (Array.map
           (function
             | Value v -> v
             | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
             | Empty -> assert false)
           results)
  end
