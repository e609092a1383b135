(* The four benchmark workloads. Every one is a closed loop: each client
   resubmits as soon as its previous transaction decides (after the 100us
   think time the experiment runner also uses). *)

type event = Crash of int | Recover of int

type t = {
  name : string;
  protocol : Repdb.Protocol.id;
  config : Repdb.Config.t;  (** observability left disabled *)
  profile : Workload.profile;
  client_sites : int list;
  clients_per_site : int;
  warmup : Sim.Time.t;
  window : Sim.Time.t;
      (** simulated measurement window of one episode; sized so that
          verifying the episode's history (whose cost grows with distinct
          written keys x history length) fits a run *)
  episodes : int;
      (** independent episodes, each with its own seed derived from the
          run's: more samples for less verification than one long one *)
  events : w_start:Sim.Time.t -> w_end:Sim.Time.t -> (Sim.Time.t * event) list;
  all_decide : bool;  (** every transaction must decide after the drain *)
  cls : Broadcast.Endpoint.cls;
      (** ordering class of the protocol's commit traffic (layer replay) *)
}

let sites_from_1 n = List.init (n - 1) (fun i -> i + 1)

let batch max_msgs =
  Some { Broadcast.Endpoint.max_msgs; max_delay = Sim.Time.of_ms 1 }

(* E15's saturation profile (2 reads + 4 writes, no read-only, uniform),
   over a key space small enough that verification fits a run. *)
let atomic_profile =
  {
    Workload.n_keys = 4_000;
    reads_per_txn = 2;
    writes_per_txn = 4;
    ro_fraction = 0.0;
    zipf_theta = 0.0;
    value_bound = 1_000_000;
  }

(* E15's knee configuration: 200us NIC cost, write set inside the commit
   request. [suspect_after] relaxed to 1s as in E15, because heartbeats
   queue behind the saturated data traffic. *)
let atomic_config ~max_msgs ~suspect_after =
  {
    (Repdb.Config.default ~n_sites:5) with
    Repdb.Config.batch = batch max_msgs;
    tx_time = Sim.Time.of_us 200;
    atomic_batch_writes = true;
    suspect_after;
  }

let no_events ~w_start:_ ~w_end:_ = []

let atomic_batched =
  {
    name = "atomic-batched";
    protocol = Repdb.Protocol.Atomic;
    config = atomic_config ~max_msgs:16 ~suspect_after:(Sim.Time.of_sec 1.0);
    profile = atomic_profile;
    client_sites = sites_from_1 5;
    clients_per_site = 16;
    warmup = Sim.Time.of_ms 40;
    window = Sim.Time.of_ms 80;
    episodes = 2;
    events = no_events;
    all_decide = true;
    cls = `Total;
  }

let causal_hotspot =
  {
    name = "causal-hotspot";
    protocol = Repdb.Protocol.Causal;
    config = Repdb.Config.default ~n_sites:5;
    profile =
      {
        Workload.default with
        Workload.n_keys = 1_000;
        ro_fraction = 0.5;
        zipf_theta = 0.9;
      };
    client_sites = sites_from_1 5;
    clients_per_site = 4;
    warmup = Sim.Time.of_ms 100;
    window = Sim.Time.of_ms 300;
    episodes = 6;
    events = no_events;
    all_decide = true;
    cls = `Causal;
  }

let reliable_wide =
  {
    name = "reliable-wide";
    protocol = Repdb.Protocol.Reliable;
    config =
      {
        (Repdb.Config.default ~n_sites:9) with
        Repdb.Config.batch = batch 4;
        tx_time = Sim.Time.of_us 50;
        suspect_after = Sim.Time.of_sec 1.0;
      };
    profile =
      {
        Workload.default with
        Workload.n_keys = 6_000;
        reads_per_txn = 0;
        writes_per_txn = 4;
        ro_fraction = 0.0;
      };
    client_sites = sites_from_1 9;
    clients_per_site = 8;
    warmup = Sim.Time.of_ms 40;
    window = Sim.Time.of_ms 160;
    episodes = 2;
    events = no_events;
    all_decide = true;
    cls = `Reliable;
  }

(* Below the knee (batch 4), default 200ms suspicion; the sequencer crashes
   100ms into the window and rejoins 250ms later. Site 1 takes over as
   sequencer, so clients run on sites 2-4 only: a sequencer's own
   transactions order locally, and its closed loop would drown the
   distributed commit path. *)
let atomic_failover =
  {
    atomic_batched with
    name = "atomic-failover";
    config = atomic_config ~max_msgs:4 ~suspect_after:(Sim.Time.of_ms 200);
    client_sites = [ 2; 3; 4 ];
    window = Sim.Time.of_ms 450;
    episodes = 3;
    events =
      (fun ~w_start ~w_end:_ ->
        [
          (Sim.Time.add w_start (Sim.Time.of_ms 100), Crash 0);
          (Sim.Time.add w_start (Sim.Time.of_ms 350), Recover 0);
        ]);
    all_decide = false;
  }

let all = [ atomic_batched; causal_hotspot; reliable_wide; atomic_failover ]

let find name = List.find_opt (fun w -> w.name = name) all
