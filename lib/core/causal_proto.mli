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

    Each site runs this commit check over the transactions still undecided
    there, in {!Db.Txn_id.compare} order; transactions one delivery
    completes decide in that order. After a delivery from [r] it re-checks
    only those whose last check found [r]'s acknowledgment missing, and
    those never checked; a view change or snapshot install re-checks them
    all (docs/PROTOCOLS.md argues why skipping the rest never delays a
    decision). Decided transactions keep their records to absorb late
    NACKs, but the check does not visit them.

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

val decidable : t -> Net.Site_id.t -> Db.Txn_id.t list
(** The transactions still undecided at a ready site whose commit check
    would decide them now, in {!Db.Txn_id.compare} order ([[]] at a site
    that is down or joining). The check runs after every delivery, view
    change and snapshot install, so between engine events this is always
    empty; a property test holds it to that. *)
