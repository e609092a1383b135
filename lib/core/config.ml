type t = {
  n_sites : int;
  latency : Net.Latency.t;
  hb_interval : Sim.Time.t;
  suspect_after : Sim.Time.t;
  ack_delay : Sim.Time.t option;
  early_ww_abort : bool;
  flood : bool;
  batch : Broadcast.Endpoint.batch option;
  tx_time : Sim.Time.t;
  atomic_batch_writes : bool;
  atomic_premature_ack : bool;
  loss : Net.Network.loss option;
  obs : Obs.Recorder.t;
  audit : Audit.Log.t;
  sampler : Obs.Sampler.t;
  bug_causal_inversion : bool;
  bug_total_divergence : bool;
}

let default ~n_sites =
  {
    n_sites;
    latency = Net.Latency.lan;
    hb_interval = Sim.Time.of_ms 50;
    suspect_after = Sim.Time.of_ms 200;
    ack_delay = Some (Sim.Time.of_ms 10);
    early_ww_abort = false;
    flood = false;
    batch = None;
    tx_time = Sim.Time.zero;
    atomic_batch_writes = false;
    atomic_premature_ack = false;
    loss = None;
    obs = Obs.Recorder.none;
    audit = Audit.Log.none;
    sampler = Obs.Sampler.none;
    bug_causal_inversion = false;
    bug_total_divergence = false;
  }
