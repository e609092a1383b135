type t = {
  id : int;
  members : Net.Site_id.Set.t;
  coordinator : Net.Site_id.t;
}

let initial ~n =
  if n <= 0 || n > Net.Site_id.max_sites then
    invalid_arg "View.initial: n outside 1..Site_id.max_sites";
  { id = 0; members = Net.Site_id.Set.of_list (Net.Site_id.all ~n); coordinator = 0 }

let of_parts ~id ~members ~coordinator =
  let members = Net.Site_id.Set.of_list members in
  if not (Net.Site_id.Set.mem coordinator members) then
    invalid_arg "View.of_parts: coordinator not a member";
  { id; members; coordinator }

let mem t site = Net.Site_id.Set.mem site t.members

let remove t site =
  let members = Net.Site_id.Set.remove site t.members in
  let coordinator =
    if Net.Site_id.equal site t.coordinator then begin
      match Net.Site_id.Set.min_elt_opt members with
      | Some next -> next
      | None -> invalid_arg "View.remove: would empty the view"
    end
    else t.coordinator
  in
  { id = t.id + 1; members; coordinator }

let add t site =
  { id = t.id + 1; members = Net.Site_id.Set.add site t.members;
    coordinator = t.coordinator }

let size t = Net.Site_id.Set.cardinal t.members

let is_primary t ~n_total = 2 * size t > n_total

let coordinator t = t.coordinator

let members_list t = Net.Site_id.Set.elements t.members

let equal a b =
  a.id = b.id
  && Net.Site_id.Set.equal a.members b.members
  && Net.Site_id.equal a.coordinator b.coordinator

let pp ppf t =
  Format.fprintf ppf "view#%d{%s|coord=%a}" t.id
    (String.concat "," (List.map Net.Site_id.to_string (members_list t)))
    Net.Site_id.pp t.coordinator
