(** The causal-broadcast protocol with implicit acknowledgments (section 4).

    Structure follows the reliable protocol — local reads under shared
    locks, write operations broadcast as issued, no-wait lock acquisition at
    delivery — but dissemination uses {e causal} broadcast and the explicit
    vote round of two-phase commit disappears:

    - A site that refuses a delivered write causally broadcasts an explicit
      {b NACK}; every site aborts the transaction on delivering it.
    - Positive acknowledgments are {b implicit}: a site commits transaction
      [T] once, for every other member [r] of the current view, it has
      delivered some message from [r] whose vector clock shows it causally
      follows [T]'s commit request — if [r] had refused one of [T]'s writes,
      its NACK would have preceded that message, so "later traffic from
      everyone and no NACK" is exactly the all-yes vote set of two-phase
      commit, collected for free from the causal delivery machinery.

    Each site re-runs this commit check after every delivery (and after a
    view change or snapshot install) over the transactions still undecided
    there, in {!Db.Txn_id.compare} order; transactions one delivery
    completes decide in that order. Decided transactions keep their records
    to absorb late NACKs, but the check does not visit them.

    Safety: any NACK for [T] is broadcast by its sender before the sender
    delivers [T]'s commit request (writes causally precede the request), so
    causal delivery puts every NACK before any message that could complete
    [T]'s implicit-acknowledgment set at any site — all sites decide alike.

    The paper's caveat is measured by experiment E3: with little background
    traffic, implicit acknowledgments are slow to accrue; the
    {!Config.t.ack_delay} option sends an explicit acknowledgment after an
    idle period, and [None] reproduces the pure protocol.

    Early conflict detection ({!Config.t.early_ww_abort}): when a delivered
    write is refused and its vector clock is {e concurrent} with the
    lock-holder's write, the holder is doomed at some site unless its commit
    request was already delivered here — in that window the refusing site
    NACKs both transactions immediately, the paper's "detect that two
    conflicting operations are concurrent and hence will be aborted". *)

include Protocol_intf.S
