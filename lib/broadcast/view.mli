(** Group-membership views.

    The communication layer "maintains a view of the current system
    configuration ... restructured using the notion of majority quorums"
    (paper, section 3). A view is a numbered membership set with an explicit
    coordinator; the system remains operational at a site while that site's
    view holds a majority of all sites.

    The coordinator (the total-order sequencer and join coordinator) is
    {e sticky}: it changes only when the incumbent leaves the view, never
    when a site joins. This guarantees at most one live sequencer under
    fail-stop crashes — a rejoining lower-numbered site does not reclaim
    the role. *)

type t = private {
  id : int;
  members : Net.Site_id.Set.t;
  coordinator : Net.Site_id.t;
}

val initial : n:int -> t
(** View 0: all [n] sites, coordinator site 0. Raises [Invalid_argument]
    unless [1 <= n <= Net.Site_id.max_sites]. *)

val of_parts :
  id:int -> members:Net.Site_id.t list -> coordinator:Net.Site_id.t -> t
(** Reconstruct a view received over the wire (join snapshots). Raises
    [Invalid_argument] if the coordinator is not a member. *)

val mem : t -> Net.Site_id.t -> bool

val remove : t -> Net.Site_id.t -> t
(** Next view without the given site (view id incremented). If the
    coordinator is removed, the smallest remaining member takes over.
    Raises [Invalid_argument] if the removal would empty the view. *)

val add : t -> Net.Site_id.t -> t
(** Next view with the given site; the coordinator is unchanged. *)

val size : t -> int

val is_primary : t -> n_total:int -> bool
(** Strict majority of all sites. *)

val coordinator : t -> Net.Site_id.t

val members_list : t -> Net.Site_id.t list

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
