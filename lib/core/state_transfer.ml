type t = {
  xfer_dump : Db.Version_store.dump;
  xfer_applies : Verify.History.apply_log;
}

let export core =
  {
    xfer_dump = Db.Version_store.snapshot (Site_core.store core);
    xfer_applies =
      Verify.History.apply_log (Site_core.history core) ~site:(Site_core.site core);
  }

let import core t =
  Site_core.replace_store core (Db.Version_store.restore t.xfer_dump);
  Verify.History.adopt_apply_log (Site_core.history core) ~site:(Site_core.site core)
    t.xfer_applies
