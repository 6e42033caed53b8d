type user = {
  name : string;
  uid : int;
  gid : int;
  home : string;
  shell : string;
}

type group = { gname : string; ggid : int; members : string list }

(* Sorted arrays: [users] ascends by name and [groups] by group name,
   one record per name.  They hold no spare capacity, so two equal
   account sets are equal under polymorphic comparison. *)
type t = { users : user array; groups : group array }

let empty = { users = [||]; groups = [||] }

let user_name u = u.name
let group_name g = g.gname

(* The index in [lo, hi) of the record of [a] whose [key] is [name],
   or [-1 - i] with [i] its insertion point. *)
let rec search key a name lo hi =
  if lo >= hi then -1 - lo
  else
    let mid = (lo + hi) lsr 1 in
    let c = String.compare (key a.(mid)) name in
    if c = 0 then mid
    else if c < 0 then search key a name (mid + 1) hi
    else search key a name lo mid

let index key a name = search key a name 0 (Array.length a)

(* [a] with [x] at the slot [index] gave: the record replaced when
   present, inserted at its place otherwise. *)
let put a i x =
  if i >= 0 then begin
    let b = Array.copy a in
    b.(i) <- x;
    b
  end
  else
    let i = -1 - i and n = Array.length a in
    let b = Array.make (n + 1) x in
    Array.blit a 0 b 0 i;
    Array.blit a i b (i + 1) (n - i);
    b

let add_group t g =
  { t with groups = put t.groups (index group_name t.groups g.gname) g }

let rec gid_from groups gid i =
  i < Array.length groups && (groups.(i).ggid = gid || gid_from groups gid (i + 1))

let group_with_gid t gid = gid_from t.groups gid 0

let add_user t u =
  let t =
    if group_with_gid t u.gid then t
    else add_group t { gname = u.name; ggid = u.gid; members = [] }
  in
  { t with users = put t.users (index user_name t.users u.name) u }

(* --- bulk construction ---------------------------------------------------- *)

let rec ascending key a i =
  i >= Array.length a
  || (String.compare (key a.(i - 1)) (key a.(i)) < 0 && ascending key a (i + 1))

let rec mem_sorted gids gid lo hi =
  lo < hi
  &&
  let mid = (lo + hi) lsr 1 in
  let g = gids.(mid) in
  g = gid || if g < gid then mem_sorted gids gid (mid + 1) hi else mem_sorted gids gid lo mid

(* Every user's gid is some group's: then no user invents a group. *)
let gids_covered users groups =
  let gids = Array.map (fun g -> g.ggid) groups in
  Array.sort Int.compare gids;
  Array.for_all (fun u -> mem_sorted gids u.gid 0 (Array.length gids)) users

(* What the fold leaves, in O(n log n): the last record per name wins,
   and a user whose gid no group holds at its turn invents a group,
   which replaces the group of its name. *)
let of_unordered groups users =
  let by_name = Hashtbl.create 64 and holders = Hashtbl.create 64 in
  let holding gid = Option.value ~default:0 (Hashtbl.find_opt holders gid) in
  let set_group g =
    (match Hashtbl.find_opt by_name g.gname with
     | Some old -> Hashtbl.replace holders old.ggid (holding old.ggid - 1)
     | None -> ());
    Hashtbl.replace by_name g.gname g;
    Hashtbl.replace holders g.ggid (holding g.ggid + 1)
  in
  List.iter set_group groups;
  let users_by_name = Hashtbl.create 64 in
  List.iter
    (fun u ->
      if holding u.gid = 0 then set_group { gname = u.name; ggid = u.gid; members = [] };
      Hashtbl.replace users_by_name u.name u)
    users;
  let sorted tbl key =
    let a = Array.of_seq (Hashtbl.to_seq_values tbl) in
    Array.sort (fun x y -> String.compare (key x) (key y)) a;
    a
  in
  { users = sorted users_by_name user_name; groups = sorted by_name group_name }

let of_list ~groups ~users =
  let g = Array.of_list groups and u = Array.of_list users in
  if ascending group_name g 1 && ascending user_name u 1 && gids_covered u g then
    { users = u; groups = g }
  else of_unordered groups users

let base =
  let t = empty in
  let t = add_group t { gname = "root"; ggid = 0; members = [] } in
  let t = add_group t { gname = "wheel"; ggid = 10; members = [] } in
  let t = add_group t { gname = "adm"; ggid = 4; members = [] } in
  let t = add_group t { gname = "nogroup"; ggid = 65534; members = [] } in
  let t =
    add_user t { name = "root"; uid = 0; gid = 0; home = "/root"; shell = "/bin/bash" }
  in
  let t =
    add_user t
      { name = "daemon"; uid = 1; gid = 1; home = "/usr/sbin"; shell = "/usr/sbin/nologin" }
  in
  let t =
    add_user t { name = "bin"; uid = 2; gid = 2; home = "/bin"; shell = "/usr/sbin/nologin" }
  in
  let t =
    add_user t
      { name = "nobody"; uid = 65534; gid = 65534; home = "/nonexistent";
        shell = "/usr/sbin/nologin" }
  in
  t

let next_system_uid t =
  let used uid = Array.exists (fun u -> u.uid = uid) t.users in
  let rec go i = if used i then go (i + 1) else i in
  go 100

let find_user t name =
  let i = index user_name t.users name in
  if i >= 0 then Some t.users.(i) else None

let find_group t name =
  let i = index group_name t.groups name in
  if i >= 0 then Some t.groups.(i) else None

let user_exists t name = index user_name t.users name >= 0
let group_exists t name = index group_name t.groups name >= 0

let add_service_account t name =
  if user_exists t name then t
  else
    let uid = next_system_uid t in
    let t = add_group t { gname = name; ggid = uid; members = [] } in
    add_user t
      { name; uid; gid = uid; home = "/var/lib/" ^ name; shell = "/usr/sbin/nologin" }

let users t = Array.to_list t.users
let groups t = Array.to_list t.groups

(* the last group in name order that holds the user's gid *)
let primary_group t name =
  match find_user t name with
  | None -> None
  | Some u ->
      let rec from i =
        if i < 0 then None
        else if t.groups.(i).ggid = u.gid then Some t.groups.(i).gname
        else from (i - 1)
      in
      from (Array.length t.groups - 1)

let groups_of_user t name =
  match find_user t name with
  | None -> []
  | Some _ ->
      let primary = Option.to_list (primary_group t name) in
      let supplementary =
        Array.fold_left
          (fun acc g -> if List.mem name g.members then g.gname :: acc else acc)
          [] t.groups
      in
      List.sort_uniq compare (primary @ supplementary)

let user_in_group t ~user ~group =
  List.mem group (groups_of_user t user)

let is_admin t name =
  match find_user t name with
  | None -> false
  | Some u ->
      u.uid = 0
      || List.exists
           (fun g -> user_in_group t ~user:name ~group:g)
           [ "wheel"; "adm"; "sudo" ]

let is_root_group t name =
  match find_user t name with None -> false | Some u -> u.gid = 0
