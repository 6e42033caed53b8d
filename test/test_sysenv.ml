(* Tests for encore_sysenv: virtual filesystem, accounts, services,
   the image aggregate and the collector round-trip. *)

module Fs = Encore_sysenv.Fs
module Accounts = Encore_sysenv.Accounts
module Services = Encore_sysenv.Services
module Hostinfo = Encore_sysenv.Hostinfo
module Image = Encore_sysenv.Image
module Collector = Encore_sysenv.Collector
module Population = Encore_workloads.Population
module Profile = Encore_workloads.Profile
module Prng = Encore_util.Prng

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- Fs ----------------------------------------------------------------- *)

let test_fs_empty_root () =
  check Alcotest.bool "root exists" true (Fs.exists Fs.empty "/");
  check Alcotest.bool "root is dir" true (Fs.is_dir Fs.empty "/")

let test_fs_add_file_creates_parents () =
  let fs = Fs.add_file Fs.empty "/var/log/mysql/error.log" in
  check Alcotest.bool "file" true (Fs.is_file fs "/var/log/mysql/error.log");
  check Alcotest.bool "parent dir" true (Fs.is_dir fs "/var/log/mysql");
  check Alcotest.bool "grandparent dir" true (Fs.is_dir fs "/var")

let test_fs_add_relative_rejected () =
  Alcotest.check_raises "relative path"
    (Invalid_argument "Fs: path must be absolute: var/log")
    (fun () -> ignore (Fs.add_dir Fs.empty "var/log"))

let test_fs_normalization () =
  let fs = Fs.add_dir Fs.empty "/a//b/" in
  check Alcotest.bool "normalized" true (Fs.is_dir fs "/a/b")

let test_fs_metadata () =
  let fs = Fs.add_file ~owner:"mysql" ~group:"adm" ~perm:0o640 ~size:77 Fs.empty "/x" in
  match Fs.lookup fs "/x" with
  | Some m ->
      check Alcotest.string "owner" "mysql" m.Fs.owner;
      check Alcotest.string "group" "adm" m.Fs.group;
      check Alcotest.int "perm" 0o640 m.Fs.perm;
      check Alcotest.int "size" 77 m.Fs.size
  | None -> Alcotest.fail "missing"

let test_fs_symlink_resolution () =
  let fs = Fs.add_file Fs.empty "/target" in
  let fs = Fs.add_symlink fs "/link" ~target:"/target" in
  check Alcotest.bool "resolves to file" true (Fs.is_file fs "/link");
  match Fs.lookup fs "/link" with
  | Some { Fs.kind = Fs.Symlink t; _ } -> check Alcotest.string "target" "/target" t
  | Some _ | None -> Alcotest.fail "expected symlink from lookup"

let test_fs_symlink_loop () =
  let fs = Fs.add_symlink Fs.empty "/a" ~target:"/b" in
  let fs = Fs.add_symlink fs "/b" ~target:"/a" in
  check Alcotest.bool "loop terminates as missing" true (Fs.resolve fs "/a" = None)

let test_fs_children_sorted () =
  let fs = Fs.add_file Fs.empty "/d/b" in
  let fs = Fs.add_file fs "/d/a" in
  let fs = Fs.add_dir fs "/d/c" in
  check (Alcotest.list Alcotest.string) "sorted children" [ "a"; "b"; "c" ]
    (Fs.children fs "/d");
  check (Alcotest.list Alcotest.string) "no grandchildren" [ "a"; "b"; "c" ]
    (Fs.children (Fs.add_file fs "/d/c/deep") "/d")

let test_fs_has_subdir_symlink () =
  let fs = Fs.add_dir Fs.empty "/d/sub" in
  check Alcotest.bool "has subdir" true (Fs.has_subdir fs "/d");
  check Alcotest.bool "no symlink" false (Fs.has_symlink fs "/d");
  let fs = Fs.add_symlink fs "/d/link" ~target:"/etc" in
  check Alcotest.bool "has symlink" true (Fs.has_symlink fs "/d")

let test_fs_remove_subtree () =
  let fs = Fs.add_file Fs.empty "/a/b/c" in
  let fs = Fs.remove fs "/a/b" in
  check Alcotest.bool "dir gone" false (Fs.exists fs "/a/b");
  check Alcotest.bool "child gone" false (Fs.exists fs "/a/b/c");
  check Alcotest.bool "parent stays" true (Fs.exists fs "/a")

let test_fs_chown_chmod () =
  let fs = Fs.add_file Fs.empty "/f" in
  let fs = Fs.chown fs "/f" ~owner:"alice" ~group:"users" in
  let fs = Fs.chmod fs "/f" ~perm:0o600 in
  match Fs.lookup fs "/f" with
  | Some m ->
      check Alcotest.string "owner" "alice" m.Fs.owner;
      check Alcotest.int "perm" 0o600 m.Fs.perm
  | None -> Alcotest.fail "missing"

let test_fs_readable_by () =
  let fs = Fs.add_file ~owner:"alice" ~group:"staff" ~perm:0o640 Fs.empty "/f" in
  check Alcotest.bool "owner reads" true (Fs.readable_by fs ~user:"alice" ~groups:[] "/f");
  check Alcotest.bool "group reads" true
    (Fs.readable_by fs ~user:"bob" ~groups:[ "staff" ] "/f");
  check Alcotest.bool "other denied" false
    (Fs.readable_by fs ~user:"bob" ~groups:[ "users" ] "/f");
  check Alcotest.bool "root reads" true (Fs.readable_by fs ~user:"root" ~groups:[] "/f");
  check Alcotest.bool "missing file" false
    (Fs.readable_by fs ~user:"root" ~groups:[] "/nope")

let test_fs_fold_counts () =
  let fs = Fs.add_file Fs.empty "/a/b" in
  let n = Fs.fold (fun _ _ acc -> acc + 1) fs 0 in
  check Alcotest.int "two nodes (a, a/b)" 2 n

let prop_fs_add_then_exists =
  let seg = QCheck.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 1 6)) in
  let path_gen =
    QCheck.Gen.(map (fun segs -> "/" ^ String.concat "/" segs)
                  (list_size (int_range 1 5) seg))
  in
  QCheck.Test.make ~name:"added path always exists" ~count:300
    (QCheck.make path_gen)
    (fun path -> Fs.exists (Fs.add_file Fs.empty path) path)

(* [Fs.add] against a reference model: a string map that adds each
   missing ancestor as a root-owned directory, leaves present paths
   alone, and lets a later explicit add win.  Segments come from a
   small alphabet, so paths share ancestors and some recur; a quarter
   of the adds re-add an earlier path with new metadata. *)
let prop_fs_add_matches_reference =
  let module M = Map.Make (String) in
  let open QCheck.Gen in
  let path =
    map
      (fun segs -> "/" ^ String.concat "/" segs)
      (list_size (int_range 1 8) (oneofl [ "a"; "b"; "etc"; "x1" ]))
  in
  let meta =
    map4
      (fun owner perm size kind -> { Fs.owner; group = owner; perm; size; kind })
      (oneofl [ "root"; "mysql"; "www" ])
      (int_bound 0o777) (int_bound 4096)
      (oneofl [ Fs.Regular; Fs.Directory; Fs.Symlink "/etc" ])
  in
  let resolve ops =
    List.rev
      (List.fold_left
         (fun acc (target, m) ->
           match (target, acc) with
           | Either.Left p, _ -> (p, m) :: acc
           | Either.Right k, _ :: _ ->
               (fst (List.nth acc (k mod List.length acc)), m) :: acc
           | Either.Right _, [] -> acc)
         [] ops)
  in
  let ops =
    map resolve
      (list_size (int_range 0 40)
         (pair
            (frequency [ (3, map Either.left path); (1, map Either.right nat) ])
            meta))
  in
  let ancestors p =
    let comps = String.split_on_char '/' p |> List.tl in
    let rec go prefix = function
      | [] | [ _ ] -> []
      | c :: rest ->
          let a = prefix ^ "/" ^ c in
          a :: go a rest
    in
    go "" comps
  in
  let dir =
    { Fs.owner = "root"; group = "root"; perm = 0o755; size = 0;
      kind = Fs.Directory }
  in
  let reference ops =
    List.fold_left
      (fun model (p, m) ->
        List.fold_left
          (fun model a -> if M.mem a model then model else M.add a dir model)
          model (ancestors p)
        |> M.add p m)
      M.empty ops
  in
  QCheck.Test.make ~name:"Fs.add matches a reference map" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list (fun (p, (m : Fs.meta)) ->
                  Printf.sprintf "%s %s %o" p m.Fs.owner m.Fs.perm))
       ops)
    (fun ops ->
      let fs = List.fold_left (fun fs (p, m) -> Fs.add fs p m) Fs.empty ops in
      List.rev (Fs.fold (fun p m acc -> (p, m) :: acc) fs [])
      = M.bindings (reference ops))

(* [Fs.of_list] against folding [Fs.add] over the same records.  The
   record lists are random (so shuffled, with repeated paths and
   missing parents), or the ascending records of a tree, whole (the
   one-pass build) or with records dropped (ascending, parents
   missing).  Paths come spelled non-canonically, a few name the root,
   and a few do not canonicalize at all: then both must raise the same
   message.  Segments with '-' and '.' sort between a directory and
   its children. *)
let prop_fs_of_list_matches_add =
  let open QCheck.Gen in
  let seg = oneofl [ "a"; "b"; "etc"; "a-b"; "a.c"; "x1" ] in
  let canonical =
    map (fun segs -> "/" ^ String.concat "/" segs) (list_size (int_range 1 5) seg)
  in
  let spelled =
    canonical >>= fun p ->
    oneof
      [ return p; return p; return (p ^ "/"); return ("/" ^ p);
        return ("./" ^ p); return (p ^ "/."); map (fun s -> p ^ "/" ^ s ^ "/..") seg ]
  in
  let path =
    frequency
      [ (30, spelled); (1, oneofl [ "/"; "//"; "/."; "/a/.." ]);
        (1, oneofl [ "rel/x"; "/.."; ""; "/a/../../x" ]) ]
  in
  let meta =
    map4
      (fun owner perm size kind -> { Fs.owner; group = owner; perm; size; kind })
      (oneofl [ "root"; "mysql"; "www" ])
      (int_bound 0o777) (int_bound 4096)
      (oneofl [ Fs.Regular; Fs.Directory; Fs.Symlink "/etc" ])
  in
  let added records =
    List.fold_left (fun fs (p, m) -> Fs.add fs p m) Fs.empty records
  in
  let tree_records =
    list_size (int_range 0 30) (pair canonical meta) >|= fun records ->
    List.rev (Fs.fold (fun p m acc -> (p, m) :: acc) (added records) [])
  in
  let records =
    frequency
      [ (2, list_size (int_range 0 30) (pair path meta)); (1, tree_records);
        (1, tree_records >>= fun rs ->
            map (fun keep -> List.filteri (fun i _ -> List.nth keep (i mod 7)) rs)
              (list_repeat 7 bool)) ]
  in
  let outcome build =
    match build () with
    | fs -> Ok (Fs.fold (fun p m acc -> (p, m) :: acc) fs [], Fs.lookup fs "/")
    | exception Invalid_argument msg -> Error msg
  in
  QCheck.Test.make ~name:"Fs.of_list equals folding Fs.add" ~count:500
    (QCheck.make
       ~print:QCheck.Print.(list (fun (p, (m : Fs.meta)) ->
                  Printf.sprintf "%S %s %o" p m.Fs.owner m.Fs.perm))
       records)
    (fun records ->
      outcome (fun () -> added records) = outcome (fun () -> Fs.of_list records))

(* --- Accounts ----------------------------------------------------------- *)

let test_accounts_base () =
  check Alcotest.bool "root" true (Accounts.user_exists Accounts.base "root");
  check Alcotest.bool "nobody" true (Accounts.user_exists Accounts.base "nobody");
  check Alcotest.bool "wheel group" true (Accounts.group_exists Accounts.base "wheel")

let test_accounts_service_account () =
  let t = Accounts.add_service_account Accounts.base "mysql" in
  check Alcotest.bool "user" true (Accounts.user_exists t "mysql");
  check Alcotest.bool "group" true (Accounts.group_exists t "mysql");
  check (Alcotest.option Alcotest.string) "primary group" (Some "mysql")
    (Accounts.primary_group t "mysql");
  let t2 = Accounts.add_service_account t "mysql" in
  check Alcotest.int "idempotent" (List.length (Accounts.users t))
    (List.length (Accounts.users t2))

let test_accounts_groups_of_user () =
  let t = Accounts.add_service_account Accounts.base "web" in
  let t = Accounts.add_group t { Accounts.gname = "extra"; ggid = 900; members = [ "web" ] } in
  check (Alcotest.list Alcotest.string) "primary+supplementary" [ "extra"; "web" ]
    (Accounts.groups_of_user t "web");
  check (Alcotest.list Alcotest.string) "unknown user" []
    (Accounts.groups_of_user t "ghost")

let test_accounts_is_admin () =
  check Alcotest.bool "root is admin" true (Accounts.is_admin Accounts.base "root");
  let t = Accounts.add_service_account Accounts.base "svc" in
  check Alcotest.bool "service not admin" false (Accounts.is_admin t "svc");
  let t = Accounts.add_group t { Accounts.gname = "sudo"; ggid = 27; members = [ "svc" ] } in
  check Alcotest.bool "sudo member is admin" true (Accounts.is_admin t "svc")

let test_accounts_is_root_group () =
  check Alcotest.bool "root" true (Accounts.is_root_group Accounts.base "root");
  check Alcotest.bool "nobody" false (Accounts.is_root_group Accounts.base "nobody")

let test_accounts_user_in_group () =
  let t = Accounts.add_service_account Accounts.base "app" in
  check Alcotest.bool "own group" true (Accounts.user_in_group t ~user:"app" ~group:"app");
  check Alcotest.bool "not wheel" false (Accounts.user_in_group t ~user:"app" ~group:"wheel")

(* Names and gids from small pools, so records repeat names, users
   miss their gid's group, and a user's invented primary group replaces
   a group of the same name.  Half the inputs ascend strictly, which is
   the bulk builder's one-pass path. *)
let prop_accounts_of_list_matches_add =
  let open QCheck.Gen in
  let name = oneofl [ "adm"; "bin"; "mysql"; "root"; "www" ] in
  let gid = int_bound 5 in
  let group =
    map3
      (fun gname ggid members -> { Accounts.gname; ggid; members })
      name gid
      (list_size (int_bound 2) name)
  in
  let user =
    map3
      (fun name uid gid ->
        { Accounts.name; uid; gid; home = "/home/" ^ name; shell = "/bin/sh" })
      name (int_bound 3) gid
  in
  let ascending key records =
    List.sort_uniq (fun a b -> String.compare (key a) (key b)) records
  in
  let records =
    map3
      (fun sorted groups users ->
        if sorted then
          ( ascending (fun (g : Accounts.group) -> g.gname) groups,
            ascending (fun (u : Accounts.user) -> u.name) users )
        else (groups, users))
      bool
      (list_size (int_bound 8) group)
      (list_size (int_bound 8) user)
  in
  let print (groups, users) =
    String.concat "; "
      (List.map
         (fun (g : Accounts.group) -> Printf.sprintf "group %s:%d" g.gname g.ggid)
         groups
      @ List.map
          (fun (u : Accounts.user) -> Printf.sprintf "user %s:%d" u.name u.gid)
          users)
  in
  QCheck.Test.make ~name:"Accounts.of_list equals folding add" ~count:1000
    (QCheck.make ~print records)
    (fun (groups, users) ->
      let folded =
        List.fold_left Accounts.add_user
          (List.fold_left Accounts.add_group Accounts.empty groups)
          users
      in
      let built = Accounts.of_list ~groups ~users in
      Accounts.users built = Accounts.users folded
      && Accounts.groups built = Accounts.groups folded
      && built = folded)

let test_accounts_invented_group_replaces () =
  (* the user mysql finds no group with gid 999 and invents mysql:999,
     which replaces mysql:27; x then finds no gid 27 and invents x:27 *)
  let groups = [ { Accounts.gname = "mysql"; ggid = 27; members = [] } ] in
  let user name gid = { Accounts.name; uid = gid; gid; home = "/"; shell = "/bin/sh" } in
  let t = Accounts.of_list ~groups ~users:[ user "mysql" 999; user "x" 27 ] in
  check
    Alcotest.(list (pair string int))
    "groups" [ ("mysql", 999); ("x", 27) ]
    (List.map (fun (g : Accounts.group) -> (g.gname, g.ggid)) (Accounts.groups t));
  check (Alcotest.option Alcotest.string) "x's primary group" (Some "x")
    (Accounts.primary_group t "x")

(* --- Services ----------------------------------------------------------- *)

let prop_services_of_list_matches_add =
  let open QCheck.Gen in
  let record = pair (oneofl [ 22; 80; 443; 3306; 8080 ]) (oneofl [ "a"; "b"; "c" ]) in
  let records =
    map2
      (fun sorted rs ->
        if sorted then List.sort_uniq (fun (p, _) (q, _) -> Int.compare p q) rs
        else rs)
      bool
      (list_size (int_bound 10) record)
  in
  QCheck.Test.make ~name:"Services.of_list equals folding add" ~count:1000
    (QCheck.make
       ~print:QCheck.Print.(list (pair int string))
       records)
    (fun records ->
      let folded =
        List.fold_left
          (fun t (port, name) -> Services.add t ~port ~name)
          Services.empty records
      in
      let built = Services.of_list records in
      Services.ports built = Services.ports folded
      && List.for_all
           (fun p -> Services.service_of_port built p = Services.service_of_port folded p)
           (Services.ports folded)
      && built = folded)

let test_services_base () =
  check Alcotest.bool "ssh" true (Services.known_port Services.base 22);
  check Alcotest.bool "mysql" true (Services.known_port Services.base 3306);
  check Alcotest.bool "unknown" false (Services.known_port Services.base 12345);
  check (Alcotest.option Alcotest.string) "name" (Some "http")
    (Services.service_of_port Services.base 80);
  check (Alcotest.option Alcotest.int) "reverse" (Some 443)
    (Services.port_of_service Services.base "https")

let test_services_add () =
  let t = Services.add Services.base ~port:9000 ~name:"php-fpm" in
  check Alcotest.bool "added" true (Services.known_port t 9000)

(* --- Image + Collector --------------------------------------------------- *)

let sample_image () =
  let fs = Fs.add_file ~owner:"mysql" ~perm:0o640 Fs.empty "/var/log/err.log" in
  let fs = Fs.add_symlink fs "/var/link" ~target:"/etc" in
  Image.make ~id:"img-1" ~fs
    ~env_vars:[ ("LANG", "C") ]
    [ { Image.app = Image.Mysql; path = "/etc/my.cnf"; text = "[mysqld]\nport=3306\n" } ]

let test_image_config_access () =
  let img = sample_image () in
  (match Image.config_for img Image.Mysql with
   | Some c -> check Alcotest.string "path" "/etc/my.cnf" c.Image.path
   | None -> Alcotest.fail "config missing");
  check Alcotest.bool "no apache" true (Image.config_for img Image.Apache = None)

let test_image_set_config () =
  let img = sample_image () in
  let img = Image.set_config img Image.Mysql "[mysqld]\nport=3307\n" in
  match Image.config_for img Image.Mysql with
  | Some c ->
      check Alcotest.bool "updated" true
        (Encore_util.Strutil.contains_sub c.Image.text "3307")
  | None -> Alcotest.fail "config missing"

let test_image_env_var () =
  let img = sample_image () in
  check (Alcotest.option Alcotest.string) "env" (Some "C") (Image.env_var img "LANG");
  check (Alcotest.option Alcotest.string) "missing" None (Image.env_var img "PATH")

let test_app_name_roundtrip () =
  List.iter
    (fun app ->
      check (Alcotest.option Alcotest.string) "roundtrip"
        (Some (Image.app_to_string app))
        (Option.map Image.app_to_string (Image.app_of_string (Image.app_to_string app))))
    Image.all_apps

let test_collector_roundtrip () =
  let img = sample_image () in
  let records = Collector.collect img in
  let parsed = Oracle.Dump_ref.of_text (Collector.to_text records) in
  check Alcotest.int "record count preserved" (List.length records) (List.length parsed);
  check (Alcotest.option (Alcotest.list Alcotest.string)) "hostname" (Some [ "localhost" ])
    (Oracle.Dump_ref.find parsed ~section:"Sys" ~key:"HostName");
  check (Alcotest.option (Alcotest.list Alcotest.string)) "env var" (Some [ "C" ])
    (Oracle.Dump_ref.find parsed ~section:"Env" ~key:"LANG")

let test_collector_fs_record () =
  let img = sample_image () in
  let records = Collector.collect img in
  match Oracle.Dump_ref.find records ~section:"FS" ~key:"/var/log/err.log" with
  | Some (kind :: owner :: _) ->
      check Alcotest.string "kind" "file" kind;
      check Alcotest.string "owner" "mysql" owner
  | Some ([] | [ _ ]) | None -> Alcotest.fail "fs record missing"

let test_collector_no_hardware_when_dormant () =
  let img = Image.make ~id:"d" ~hardware:Hostinfo.no_hardware [] in
  let records = Collector.collect img in
  check Alcotest.bool "no HW record" true
    (Oracle.Dump_ref.find records ~section:"HW" ~key:"Cores" = None)

(* Decoding one fixed paper-scale mysql dump allocates and keeps a
   deterministic number of words.  Measured on OCaml 5.1 native code:
   1,621 words allocated and 976 retained (2,875 and 1,273 when the
   decoder built maps one record at a time and gave every FS record its
   own metadata); the bounds sit about 15% above. *)
let test_decode_allocation () =
  let img =
    Population.generator_for Image.Mysql Profile.ec2 (Prng.create 5000)
      ~id:"fleet-000"
  in
  let dump = Collector.image_to_text img in
  ignore (Collector.image_of_text dump);
  let w0 = Gc.minor_words () in
  let decoded = Collector.image_of_text dump in
  let allocated = Gc.minor_words () -. w0 in
  match decoded with
  | Error e -> Alcotest.fail e
  | Ok decoded ->
      let retained = Obj.reachable_words (Obj.repr decoded) in
      check Alcotest.bool
        (Printf.sprintf "allocated %.0f words <= 1860" allocated)
        true (allocated <= 1860.);
      check Alcotest.bool
        (Printf.sprintf "retained %d words <= 1120" retained)
        true (retained <= 1120)

let test_selinux_string_roundtrip () =
  List.iter
    (fun s ->
      check (Alcotest.option Alcotest.string) "roundtrip"
        (Some (Hostinfo.selinux_to_string s))
        (Option.map Hostinfo.selinux_to_string
           (Hostinfo.selinux_of_string (Hostinfo.selinux_to_string s))))
    [ Hostinfo.Enforcing; Hostinfo.Permissive; Hostinfo.Disabled ]

let () =
  Alcotest.run "encore_sysenv"
    [
      ( "fs",
        [
          Alcotest.test_case "empty root" `Quick test_fs_empty_root;
          Alcotest.test_case "parents created" `Quick test_fs_add_file_creates_parents;
          Alcotest.test_case "relative rejected" `Quick test_fs_add_relative_rejected;
          Alcotest.test_case "normalization" `Quick test_fs_normalization;
          Alcotest.test_case "metadata" `Quick test_fs_metadata;
          Alcotest.test_case "symlink resolution" `Quick test_fs_symlink_resolution;
          Alcotest.test_case "symlink loop" `Quick test_fs_symlink_loop;
          Alcotest.test_case "children sorted" `Quick test_fs_children_sorted;
          Alcotest.test_case "has_subdir/has_symlink" `Quick test_fs_has_subdir_symlink;
          Alcotest.test_case "remove subtree" `Quick test_fs_remove_subtree;
          Alcotest.test_case "chown/chmod" `Quick test_fs_chown_chmod;
          Alcotest.test_case "readable_by" `Quick test_fs_readable_by;
          Alcotest.test_case "fold" `Quick test_fs_fold_counts;
          qtest prop_fs_add_then_exists;
          qtest prop_fs_add_matches_reference;
          qtest prop_fs_of_list_matches_add;
        ] );
      ( "accounts",
        [
          Alcotest.test_case "base set" `Quick test_accounts_base;
          Alcotest.test_case "service account" `Quick test_accounts_service_account;
          Alcotest.test_case "groups of user" `Quick test_accounts_groups_of_user;
          Alcotest.test_case "is_admin" `Quick test_accounts_is_admin;
          Alcotest.test_case "is_root_group" `Quick test_accounts_is_root_group;
          Alcotest.test_case "user_in_group" `Quick test_accounts_user_in_group;
          Alcotest.test_case "invented group replaces" `Quick
            test_accounts_invented_group_replaces;
          qtest prop_accounts_of_list_matches_add;
        ] );
      ( "services",
        [
          Alcotest.test_case "base ports" `Quick test_services_base;
          Alcotest.test_case "add" `Quick test_services_add;
          qtest prop_services_of_list_matches_add;
        ] );
      ( "image",
        [
          Alcotest.test_case "config access" `Quick test_image_config_access;
          Alcotest.test_case "set config" `Quick test_image_set_config;
          Alcotest.test_case "env var" `Quick test_image_env_var;
          Alcotest.test_case "app name roundtrip" `Quick test_app_name_roundtrip;
        ] );
      ( "collector",
        [
          Alcotest.test_case "text roundtrip" `Quick test_collector_roundtrip;
          Alcotest.test_case "fs record" `Quick test_collector_fs_record;
          Alcotest.test_case "dormant has no hardware" `Quick
            test_collector_no_hardware_when_dormant;
          Alcotest.test_case "selinux roundtrip" `Quick test_selinux_string_roundtrip;
          Alcotest.test_case "decode allocation" `Quick test_decode_allocation;
        ] );
    ]
