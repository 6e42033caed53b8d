(* Tests for encore_dataset: rows, tables, environment augmentation,
   the two-pass assembler and boolean discretization. *)

module Row = Encore_dataset.Row
module Table = Encore_dataset.Table
module Augment = Encore_dataset.Augment
module Assemble = Encore_dataset.Assemble
module Discretize = Encore_dataset.Discretize
module Ctype = Encore_typing.Ctype
module Fs = Encore_sysenv.Fs
module Accounts = Encore_sysenv.Accounts
module Image = Encore_sysenv.Image

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- Row ------------------------------------------------------------------ *)

let test_row_basic () =
  let r = Row.of_list [ ("a", "1"); ("b", "2") ] in
  check (Alcotest.option Alcotest.string) "get" (Some "1") (Row.get r "a");
  check Alcotest.bool "mem" true (Row.mem r "b");
  check Alcotest.bool "not mem" false (Row.mem r "c");
  check Alcotest.int "cardinal" 2 (Row.cardinal r)

let test_row_multi_instance () =
  let r = Row.of_list [ ("listen", "80"); ("listen", "443") ] in
  check (Alcotest.list Alcotest.string) "instances" [ "80"; "443" ]
    (Row.get_all r "listen");
  check (Alcotest.option Alcotest.string) "first" (Some "80") (Row.get r "listen");
  check (Alcotest.list Alcotest.string) "distinct attrs" [ "listen" ] (Row.attrs r)

let test_row_add_appends () =
  let r = Row.add (Row.of_list [ ("a", "1") ]) "a" "2" in
  check (Alcotest.list Alcotest.string) "appended" [ "1"; "2" ] (Row.get_all r "a")

let test_row_union () =
  let r = Row.union (Row.of_list [ ("a", "1") ]) (Row.of_list [ ("b", "2") ]) in
  check (Alcotest.list Alcotest.string) "attrs" [ "a"; "b" ] (Row.attrs r)

let prop_row_roundtrip =
  let pair_gen =
    QCheck.Gen.(pair (string_size ~gen:(char_range 'a' 'e') (return 1))
                  (string_size ~gen:(char_range '0' '9') (return 1)))
  in
  QCheck.Test.make ~name:"row of_list/to_list roundtrip" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 0 12) pair_gen))
    (fun pairs -> Row.to_list (Row.of_list pairs) = pairs)

(* --- Colview ----------------------------------------------------------------- *)

module Colview = Encore_dataset.Colview

let test_colview_shape_and_order () =
  let rows =
    [ Row.of_list [ ("a", "1"); ("b", "2") ];
      Row.of_list [ ("b", "3"); ("c", "4") ] ]
  in
  let v = Colview.of_rows rows in
  check Alcotest.int "rows" 2 (Colview.n_rows v);
  check Alcotest.int "attrs" 3 (Colview.n_attrs v);
  check (Alcotest.list Alcotest.string) "first-appearance order"
    [ "a"; "b"; "c" ] (Colview.attrs v)

let test_colview_cells () =
  let rows =
    [ Row.of_list [ ("listen", "80"); ("listen", "443") ];
      Row.of_list [ ("port", "22") ] ]
  in
  let v = Colview.of_rows rows in
  let listen = Option.get (Colview.id v "listen") in
  let port = Option.get (Colview.id v "port") in
  check (Alcotest.list Alcotest.string) "multi-instance cell"
    [ "80"; "443" ] (Colview.values v ~attr:listen ~row:0);
  check (Alcotest.list Alcotest.string) "absent cell is empty" []
    (Colview.values v ~attr:listen ~row:1);
  check (Alcotest.list Alcotest.string) "column array"
    [ "22" ] (Colview.column v port).(1);
  check (Alcotest.option Alcotest.int) "unknown attr" None
    (Colview.id v "nope")

let prop_colview_matches_rows =
  let pair_gen =
    QCheck.Gen.(pair (string_size ~gen:(char_range 'a' 'e') (return 1))
                  (string_size ~gen:(char_range '0' '9') (return 1)))
  in
  QCheck.Test.make ~name:"colview cells = Row.get_all" ~count:200
    (QCheck.make
       QCheck.Gen.(list_size (int_range 0 6)
                     (list_size (int_range 0 10) pair_gen)))
    (fun rows_pairs ->
      let rows = List.map Row.of_list rows_pairs in
      let v = Colview.of_rows rows in
      List.for_all
        (fun attr ->
          let id = Option.get (Colview.id v attr) in
          List.mapi (fun _ r -> Row.get_all r attr) rows
          = Array.to_list (Colview.column v id))
        (Colview.attrs v))

(* --- Bitcol ----------------------------------------------------------------- *)

module Bitcol = Encore_dataset.Bitcol
module Bitset = Bitcol.Bitset

let test_bitset_word_edges () =
  (* 62 payload bits per word: indices 61 / 62 / 63 / 123 / 124 straddle
     the first two word boundaries *)
  List.iter
    (fun len ->
      let s = Bitset.create len in
      List.iter
        (fun i -> if i < len then Bitset.set s i)
        [ 0; 61; 62; 63; 123; 124 ];
      let expect = List.filter (fun i -> i < len) [ 0; 61; 62; 63; 123; 124 ] in
      check Alcotest.int
        (Printf.sprintf "count len=%d" len)
        (List.length expect) (Bitset.count s);
      List.iter
        (fun i ->
          check Alcotest.bool
            (Printf.sprintf "mem %d (len=%d)" i len)
            (List.mem i expect)
            (i < len && Bitset.mem s i))
        [ 0; 1; 60; 61; 62; 63; 122; 123; 124 ])
    [ 62; 63; 124; 125; 200 ]

let test_bitset_inter_iter () =
  let a = Bitset.create 130 and b = Bitset.create 130 in
  List.iter (Bitset.set a) [ 0; 5; 61; 62; 100; 124; 129 ];
  List.iter (Bitset.set b) [ 5; 61; 63; 124; 129 ];
  check Alcotest.int "inter_count" 4 (Bitset.inter_count a b);
  let seen = ref [] in
  Bitset.iter_inter a b (fun i -> seen := i :: !seen);
  check (Alcotest.list Alcotest.int) "iter_inter ascending" [ 5; 61; 124; 129 ]
    (List.rev !seen);
  check Alcotest.int "fold_inter" (5 + 61 + 124 + 129)
    (Bitset.fold_inter a b ~init:0 ( + ))

let test_bitset_empty () =
  let s = Bitset.create 0 in
  check Alcotest.int "empty count" 0 (Bitset.count s);
  check Alcotest.int "empty length" 0 (Bitset.length s);
  let a = Bitset.create 70 and b = Bitset.create 70 in
  check Alcotest.int "disjoint inter" 0 (Bitset.inter_count a b);
  Bitset.iter_inter a b (fun _ -> Alcotest.fail "no bits expected")

let test_bitcol_empty_and_absent () =
  (* attribute "gone" appears in the view (mentioned by a row) but with
     no instances anywhere after filtering: simulate with an attribute
     present in only one row, and one view with zero rows *)
  let v0 = Colview.of_rows [] in
  let b0 = Bitcol.of_colview v0 in
  check Alcotest.int "no rows" 0 (Bitcol.n_rows b0);
  let rows =
    [ Row.of_list [ ("a", "1") ];
      Row.of_list [ ("a", "2"); ("multi", "x"); ("multi", "y") ];
      Row.of_list [ ("b", "3") ] ]
  in
  let v = Colview.of_rows rows in
  let b = Bitcol.of_colview v in
  let ia = Option.get (Colview.id v "a") in
  let ib = Option.get (Colview.id v "b") in
  let im = Option.get (Colview.id v "multi") in
  check Alcotest.int "presence a" 2 (Bitset.count (Bitcol.presence b ia));
  check (Alcotest.list Alcotest.int) "index a" [ 0; 1 ]
    (Array.to_list (Bitcol.index b ia));
  check (Alcotest.list Alcotest.int) "index b" [ 2 ]
    (Array.to_list (Bitcol.index b ib));
  (* single-instance columns intern ids; multi-instance columns do not *)
  check Alcotest.bool "a single" true (Bitcol.single_ids b ia <> None);
  check Alcotest.bool "multi not single" true (Bitcol.single_ids b im = None);
  (match Bitcol.single_ids b ia with
   | Some ids ->
       check Alcotest.bool "absent row id is -1" true (ids.(2) = -1);
       check Alcotest.bool "present rows have ids" true
         (ids.(0) >= 0 && ids.(1) >= 0 && ids.(0) <> ids.(1))
   | None -> Alcotest.fail "expected single ids for a")

let test_bitcol_shared_value_ids () =
  (* equal values intern to the same id even across attributes *)
  let rows =
    [ Row.of_list [ ("x", "same"); ("y", "same") ];
      Row.of_list [ ("x", "other") ] ]
  in
  let v = Colview.of_rows rows in
  let b = Bitcol.of_colview v in
  let ix = Option.get (Colview.id v "x") in
  let iy = Option.get (Colview.id v "y") in
  match (Bitcol.single_ids b ix, Bitcol.single_ids b iy) with
  | Some xs, Some ys ->
      check Alcotest.bool "cross-column equality" true (xs.(0) = ys.(0));
      check Alcotest.bool "distinct values differ" true (xs.(1) <> xs.(0))
  | _ -> Alcotest.fail "expected single-instance columns"

let prop_bitset_count_matches_mem =
  QCheck.Test.make ~name:"bitset count = |set bits|" ~count:200
    (QCheck.make
       QCheck.Gen.(
         pair (int_range 1 200) (list_size (int_range 0 50) (int_range 0 199))))
    (fun (len, bits) ->
      let s = Bitset.create len in
      let bits = List.filter (fun i -> i < len) bits in
      List.iter (Bitset.set s) bits;
      let distinct = List.sort_uniq compare bits in
      Bitset.count s = List.length distinct
      && List.for_all (Bitset.mem s) distinct)

(* --- Table ------------------------------------------------------------------ *)

let sample_table () =
  Table.of_rows
    [ ("i1", Row.of_list [ ("a", "x"); ("b", "1") ]);
      ("i2", Row.of_list [ ("a", "x"); ("c", "z") ]);
      ("i3", Row.of_list [ ("a", "y") ]) ]

let test_table_columns_union () =
  check (Alcotest.list Alcotest.string) "columns" [ "a"; "b"; "c" ]
    (Table.columns (sample_table ()))

let test_table_column_values_support () =
  let t = sample_table () in
  check (Alcotest.list Alcotest.string) "values" [ "x"; "x"; "y" ]
    (Table.column_values t "a");
  check Alcotest.int "support a" 3 (Table.column_support t "a");
  check Alcotest.int "support b" 1 (Table.column_support t "b")

let test_table_entropy () =
  let t = sample_table () in
  check Alcotest.bool "diverse column has entropy" true (Table.column_entropy t "a" > 0.0);
  check (Alcotest.float 1e-9) "constant column" 0.0 (Table.column_entropy t "b")

let test_table_csv_roundtrip () =
  let t = sample_table () in
  let t2 = Table.of_csv (Table.to_csv t) in
  check (Alcotest.list Alcotest.string) "columns preserved" (Table.columns t) (Table.columns t2);
  check Alcotest.int "rows preserved" (Table.row_count t) (Table.row_count t2);
  check (Alcotest.list Alcotest.string) "cell values" (Table.column_values t "a")
    (Table.column_values t2 "a")

let test_table_csv_multi_instance () =
  let t = Table.of_rows [ ("i", Row.of_list [ ("l", "80"); ("l", "443") ]) ] in
  let t2 = Table.of_csv (Table.to_csv t) in
  check (Alcotest.list Alcotest.string) "instances survive csv" [ "80"; "443" ]
    (Table.column_values t2 "l")

(* --- Augment ------------------------------------------------------------------ *)

let env_image () =
  let fs = Fs.add_dir ~owner:"mysql" ~group:"mysql" ~perm:0o750 Fs.empty "/data" in
  let fs = Fs.add_dir fs "/data/sub" in
  let fs = Fs.add_symlink fs "/data/link" ~target:"/etc" in
  let fs = Fs.add_file ~owner:"mysql" ~group:"adm" ~perm:0o640 fs "/var/log/err.log" in
  let accounts = Accounts.add_service_account Accounts.base "mysql" in
  Image.make ~id:"aug" ~fs ~accounts []

(* One instance's augmentations, names built on the spot. *)
let entry img attr ctype value = Augment.augment (Augment.typed attr ctype) img value

let test_augment_file_path_dir () =
  let img = env_image () in
  let attrs = entry img "m/datadir" Ctype.File_path "/data" in
  let get k = List.assoc_opt k attrs in
  check (Alcotest.option Alcotest.string) "owner" (Some "mysql") (get "m/datadir.owner");
  check (Alcotest.option Alcotest.string) "type" (Some "dir") (get "m/datadir.type");
  check (Alcotest.option Alcotest.string) "permission" (Some "750") (get "m/datadir.permission");
  check (Alcotest.option Alcotest.string) "hasDir" (Some "True") (get "m/datadir.hasDir");
  check (Alcotest.option Alcotest.string) "hasSymLink" (Some "True") (get "m/datadir.hasSymLink")

let test_augment_file_path_file () =
  let img = env_image () in
  let attrs = entry img "m/log" Ctype.File_path "/var/log/err.log" in
  check (Alcotest.option Alcotest.string) "type" (Some "file")
    (List.assoc_opt "m/log.type" attrs);
  check Alcotest.bool "no dir attrs for files" true
    (List.assoc_opt "m/log.hasDir" attrs = None)

let test_augment_missing_path () =
  let img = env_image () in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "missing marker" [ ("m/x.type", "missing") ]
    (entry img "m/x" Ctype.File_path "/nope")

let test_augment_ip () =
  let img = env_image () in
  let attrs = entry img "a/addr" Ctype.Ip_address "192.168.1.5" in
  check (Alcotest.option Alcotest.string) "local" (Some "True")
    (List.assoc_opt "a/addr.Local" attrs);
  let attrs = entry img "a/addr" Ctype.Ip_address "0.0.0.0" in
  check (Alcotest.option Alcotest.string) "any" (Some "True")
    (List.assoc_opt "a/addr.AnyAddr" attrs);
  let attrs = entry img "a/addr" Ctype.Ip_address "8.8.8.8" in
  check (Alcotest.option Alcotest.string) "public not local" (Some "False")
    (List.assoc_opt "a/addr.Local" attrs);
  let attrs = entry img "a/addr" Ctype.Ip_address "172.20.0.1" in
  check (Alcotest.option Alcotest.string) "rfc1918 172.16/12" (Some "True")
    (List.assoc_opt "a/addr.Local" attrs)

let test_augment_user () =
  let img = env_image () in
  let attrs = entry img "m/user" Ctype.User_name "mysql" in
  check (Alcotest.option Alcotest.string) "isAdmin" (Some "False")
    (List.assoc_opt "m/user.isAdmin" attrs);
  check (Alcotest.option Alcotest.string) "isGroup" (Some "mysql")
    (List.assoc_opt "m/user.isGroup" attrs);
  let attrs = entry img "m/user" Ctype.User_name "root" in
  check (Alcotest.option Alcotest.string) "root admin" (Some "True")
    (List.assoc_opt "m/user.isAdmin" attrs)

let test_augment_port_and_size () =
  let img = env_image () in
  let attrs = entry img "m/port" Ctype.Port_number "3306" in
  check (Alcotest.option Alcotest.string) "service" (Some "mysql")
    (List.assoc_opt "m/port.service" attrs);
  check (Alcotest.option Alcotest.string) "privileged" (Some "False")
    (List.assoc_opt "m/port.privileged" attrs);
  let attrs = entry img "m/buf" Ctype.Size "8K" in
  check (Alcotest.option Alcotest.string) "bytes" (Some "8192")
    (List.assoc_opt "m/buf.bytes" attrs)

let test_augment_suffix_typing () =
  check Alcotest.bool "owner is augmented" true (Augment.is_augmented "x.owner");
  check Alcotest.bool "plain not" false (Augment.is_augmented "mysql/mysqld/datadir");
  check Alcotest.string "base" "m/datadir" (Augment.base_attr "m/datadir.owner");
  check Alcotest.bool "owner type" true
    (Ctype.equal (Augment.augmented_type "x.owner") Ctype.User_name);
  check Alcotest.bool "permission type" true
    (Ctype.equal (Augment.augmented_type "x.permission") Ctype.Permission)

let test_augment_globals () =
  let img = env_image () in
  let g = Augment.globals img in
  check Alcotest.bool "hostname" true (List.mem_assoc "Sys.HostName" g);
  check Alcotest.bool "os" true (List.mem_assoc "OS.DistName" g);
  check Alcotest.bool "hw present" true (List.mem_assoc "MemSize" g);
  let dormant = Image.make ~id:"d" ~hardware:None [] in
  check Alcotest.bool "no hw when dormant" false
    (List.mem_assoc "MemSize" (Augment.globals dormant))

(* --- Assemble ------------------------------------------------------------------ *)

let mysql_image id port =
  let fs = Fs.add_dir ~owner:"mysql" ~group:"mysql" Fs.empty "/var/lib/mysql" in
  let accounts = Accounts.add_service_account Accounts.base "mysql" in
  let text = Printf.sprintf "[mysqld]\nport = %s\ndatadir = /var/lib/mysql\nuser = mysql\n" port in
  Image.make ~id ~fs ~accounts
    [ { Image.app = Image.Mysql; path = "/etc/my.cnf"; text } ]

let test_assemble_parse_only () =
  let row = Assemble.parse_only (mysql_image "p" "3306") in
  check (Alcotest.option Alcotest.string) "entry" (Some "3306")
    (Row.get row "mysql/mysqld/port");
  check Alcotest.bool "no augmentation" false (Row.mem row "mysql/mysqld/datadir.owner")

let test_assemble_training_augments () =
  let images = List.init 6 (fun i -> mysql_image (string_of_int i) "3306") in
  let asm = Assemble.assemble_training images in
  let _, row = List.hd (Table.rows asm.Assemble.table) in
  check (Alcotest.option Alcotest.string) "augmented owner" (Some "mysql")
    (Row.get row "mysql/mysqld/datadir.owner");
  check Alcotest.bool "globals present" true (Row.mem row "Sys.HostName");
  (* types inferred for both original and augmented columns *)
  check Alcotest.bool "datadir typed" true
    (Encore_typing.Infer.find asm.Assemble.types "mysql/mysqld/datadir" <> None);
  check Alcotest.bool "owner typed" true
    (Encore_typing.Infer.find asm.Assemble.types "mysql/mysqld/datadir.owner" <> None)

let test_assemble_target_uses_training_types () =
  let images = List.init 6 (fun i -> mysql_image (string_of_int i) "3306") in
  let asm = Assemble.assemble_training images in
  let target = mysql_image "t" "3306" in
  let row = Assemble.assemble_target ~types:asm.Assemble.types target in
  check (Alcotest.option Alcotest.string) "target augmented" (Some "mysql")
    (Row.get row "mysql/mysqld/datadir.owner")

let test_assemble_type_of_fallbacks () =
  check Alcotest.bool "augmented fallback" true
    (Ctype.equal (Assemble.type_of [] "x.owner") Ctype.User_name);
  check Alcotest.bool "unknown fallback" true
    (Ctype.equal (Assemble.type_of [] "unknown") Ctype.String_t)

(* The shared augmenter against the pre-rewrite code in [test/oracle]:
   for each app's learned type environment, every training image, every
   ConfErr mutant (configuration and environment faults) and every
   held-out image assembles to the same pairs in the same order. *)
let row_pairs = Alcotest.(list (pair string string))

let test_assemble_matches_reference () =
  let rng = Encore_util.Prng.create 3 in
  List.iter
    (fun (app, n) ->
      let images =
        Encore_workloads.Population.images
          (Encore_workloads.Population.generate ~seed:9 app ~n)
      in
      let types = (Assemble.assemble_training images).Assemble.types in
      let mutants =
        List.map
          (fun img ->
            (Encore_inject.Conferr.inject ~env_fault_fraction:0.5 rng app img ~n:3)
              .Encore_inject.Conferr.image)
          images
      in
      let augment = Assemble.augment_row ~types
      and assemble = Assemble.assemble_target ~types in
      List.iter
        (fun img ->
          let raw = Assemble.parse_only img in
          let name = img.Image.image_id in
          check row_pairs (name ^ " augment_row")
            (Row.to_list (Oracle.Augment_ref.augment_row ~types img raw))
            (Row.to_list (augment img raw));
          let expected = Oracle.Augment_ref.target_assembler ~types img in
          let got = assemble img in
          check row_pairs (name ^ " target row") (Row.to_list expected)
            (Row.to_list got);
          check (Alcotest.list Alcotest.string) (name ^ " attrs")
            (Row.attrs expected) (Row.attrs got))
        (images @ mutants))
    [ (Image.Mysql, 30); (Image.Apache, 30); (Image.Php, 30); (Image.Sshd, 20) ]

(* A type environment may bind an attribute twice; the first binding
   decides, as [Infer.find] does. *)
let test_augmenter_first_binding_wins () =
  let decision ctype =
    { Encore_typing.Infer.ctype; agreement = 1.0; samples = 1 }
  in
  let img = mysql_image "f" "3306" in
  let datadir = "mysql/mysqld/datadir" in
  let row types = Assemble.assemble_target ~types img in
  check (Alcotest.option Alcotest.string) "file path first" (Some "mysql")
    (Row.get
       (row [ (datadir, decision Ctype.File_path); (datadir, decision Ctype.String_t) ])
       "mysql/mysqld/datadir.owner");
  check Alcotest.bool "string first" false
    (Row.mem
       (row [ (datadir, decision Ctype.String_t); (datadir, decision Ctype.File_path) ])
       "mysql/mysqld/datadir.owner")

let prop_permission_rendering =
  QCheck.Test.make ~name:"permission = Printf %o" ~count:500
    QCheck.(oneof [ int_bound 0o7777; int; small_signed_int ])
    (fun perm ->
      let fs = Fs.add_file ~perm Fs.empty "/f" in
      let img = Image.make ~fs ~id:"p" [] in
      List.assoc_opt "a.permission" (entry img "a" Ctype.File_path "/f")
      = Some (Printf.sprintf "%o" perm))

(* --- Discretize ------------------------------------------------------------------ *)

let test_discretize_nominal_items () =
  let t =
    Table.of_rows
      [ ("1", Row.of_list [ ("color", "red") ]);
        ("2", Row.of_list [ ("color", "blue") ]) ]
  in
  let universe, rows = Discretize.items_of_table ~numeric:false t in
  check Alcotest.int "two items" 2 (List.length universe);
  check Alcotest.bool "labels" true (List.mem "color=red" universe);
  check Alcotest.int "rows" 2 (Array.length rows)

let test_discretize_numeric_binning () =
  let t =
    Table.of_rows
      (List.mapi
         (fun i v -> (string_of_int i, Row.of_list [ ("n", string_of_int v) ]))
         [ 0; 10; 50; 90; 100 ])
  in
  let universe, _ = Discretize.items_of_table t in
  check Alcotest.bool "binned labels" true
    (List.for_all (fun i -> Encore_util.Strutil.contains_sub i "n in [") universe);
  check Alcotest.bool "at most 4 bins" true (List.length universe <= Discretize.numeric_bins)

let test_discretize_transactions_encoding () =
  let t =
    Table.of_rows
      [ ("1", Row.of_list [ ("a", "x"); ("b", "y") ]);
        ("2", Row.of_list [ ("a", "x") ]) ]
  in
  let txs, dict = Discretize.transactions t in
  check Alcotest.int "dict size" 2 (Array.length dict);
  check Alcotest.int "tx1 items" 2 (Array.length txs.(0));
  check Alcotest.int "tx2 items" 1 (Array.length txs.(1));
  (* ids are valid indices *)
  Array.iter
    (fun tx -> Array.iter (fun i -> check Alcotest.bool "valid id" true (i >= 0 && i < 2)) tx)
    txs

let test_discretize_binomial_grows () =
  (* the binomial universe is at least as large as the column count *)
  let t = sample_table () in
  check Alcotest.bool "binomial >= columns" true
    (Discretize.binomial_count t >= Table.column_count t)

let () =
  Alcotest.run "encore_dataset"
    [
      ( "row",
        [
          Alcotest.test_case "basic" `Quick test_row_basic;
          Alcotest.test_case "multi-instance" `Quick test_row_multi_instance;
          Alcotest.test_case "add appends" `Quick test_row_add_appends;
          Alcotest.test_case "union" `Quick test_row_union;
          qtest prop_row_roundtrip;
        ] );
      ( "colview",
        [
          Alcotest.test_case "shape and order" `Quick test_colview_shape_and_order;
          Alcotest.test_case "cells" `Quick test_colview_cells;
          qtest prop_colview_matches_rows;
        ] );
      ( "bitcol",
        [
          Alcotest.test_case "word edges" `Quick test_bitset_word_edges;
          Alcotest.test_case "intersection ops" `Quick test_bitset_inter_iter;
          Alcotest.test_case "empty sets" `Quick test_bitset_empty;
          Alcotest.test_case "empty and absent columns" `Quick
            test_bitcol_empty_and_absent;
          Alcotest.test_case "shared value ids" `Quick
            test_bitcol_shared_value_ids;
          qtest prop_bitset_count_matches_mem;
        ] );
      ( "table",
        [
          Alcotest.test_case "columns union" `Quick test_table_columns_union;
          Alcotest.test_case "values/support" `Quick test_table_column_values_support;
          Alcotest.test_case "entropy" `Quick test_table_entropy;
          Alcotest.test_case "csv roundtrip" `Quick test_table_csv_roundtrip;
          Alcotest.test_case "csv multi-instance" `Quick test_table_csv_multi_instance;
        ] );
      ( "augment",
        [
          Alcotest.test_case "file path dir" `Quick test_augment_file_path_dir;
          Alcotest.test_case "file path file" `Quick test_augment_file_path_file;
          Alcotest.test_case "missing path" `Quick test_augment_missing_path;
          Alcotest.test_case "ip" `Quick test_augment_ip;
          Alcotest.test_case "user" `Quick test_augment_user;
          Alcotest.test_case "port and size" `Quick test_augment_port_and_size;
          Alcotest.test_case "suffix typing" `Quick test_augment_suffix_typing;
          Alcotest.test_case "globals" `Quick test_augment_globals;
          qtest prop_permission_rendering;
        ] );
      ( "assemble",
        [
          Alcotest.test_case "parse only" `Quick test_assemble_parse_only;
          Alcotest.test_case "training augments" `Quick test_assemble_training_augments;
          Alcotest.test_case "target reuses types" `Quick test_assemble_target_uses_training_types;
          Alcotest.test_case "type_of fallbacks" `Quick test_assemble_type_of_fallbacks;
          Alcotest.test_case "augmenter = reference" `Quick
            test_assemble_matches_reference;
          Alcotest.test_case "first type binding wins" `Quick
            test_augmenter_first_binding_wins;
        ] );
      ( "discretize",
        [
          Alcotest.test_case "nominal items" `Quick test_discretize_nominal_items;
          Alcotest.test_case "numeric binning" `Quick test_discretize_numeric_binning;
          Alcotest.test_case "transaction encoding" `Quick test_discretize_transactions_encoding;
          Alcotest.test_case "binomial grows" `Quick test_discretize_binomial_grows;
        ] );
    ]
