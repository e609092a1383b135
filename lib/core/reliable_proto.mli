(** The reliable-broadcast protocol (paper, section 3).

    Read-one/write-all adapted to a reliable broadcast medium. Reads acquire
    local shared locks (and may wait). Each write operation is reliably
    broadcast with {e no per-write acknowledgments} — eventual delivery
    replaces them. Every site acquires the write lock at delivery under a
    {e no-wait} rule: a conflict means the site will respond negatively.
    Commitment is the decentralized two-phase commit, folded onto the
    broadcast medium: the origin broadcasts a commit request (FIFO order
    guarantees the writes precede it everywhere); every site broadcasts a
    vote — positive iff all of the transaction's writes were granted
    locally — and everyone commits iff all current-view members voted yes.
    A single negative vote aborts at once.

    Properties inherited from the no-wait rule: writers never wait, so every
    wait-for chain is one reader-blocked-on-a-writer edge and {b deadlock is
    impossible}; readers are never refused, so {b read-only transactions
    never abort} and never broadcast.

    Failures: votes are counted against the current majority view, so a
    crashed participant delays commitment only until the view change —
    unlike the baseline's blocking two-phase commit. A negative vote ever
    received dominates (consistent even when the voter later leaves the
    view). *)

include Protocol_intf.S
