(** Point-to-point read-one/write-all with decentralized two-phase commit.

    The paper's baseline: "In the point-to-point communication model,
    transactions in the read-one write-all protocol execute as follows" —
    reads acquire local shared locks; every write is sent to every site and
    "the transaction issuing the write operation remains blocked until
    acknowledgments have been received from all sites"; commitment is the
    decentralized two-phase commit of [Ske82]: the initiator sends commit
    requests to all sites, every site sends its vote to all sites, and a
    transaction commits iff all votes are positive.

    Writes {e wait} on conflicting locks, so distributed deadlocks are
    possible; a global waits-for-graph detector, run every 100 ms, aborts
    the youngest transaction on a cycle. Experiment E6 counts these
    against the deadlock-free broadcast protocols. *)

include Protocol_intf.S

val deadlocks_detected : t -> int
(** How many deadlock cycles the detector broke so far. *)
