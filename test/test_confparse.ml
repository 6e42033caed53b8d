(* Tests for encore_confparse: the INI, Apache and sshd lenses, key
   handling and the registry. *)

module Kv = Encore_confparse.Kv
module Ini = Encore_confparse.Ini
module Apache = Encore_confparse.Apache_lens
module Sshd = Encore_confparse.Sshd_lens
module Registry = Encore_confparse.Registry
module Image = Encore_sysenv.Image

let check = Alcotest.check

let kv_pairs kvs = List.map (fun (kv : Kv.t) -> (kv.Kv.key, kv.Kv.value)) kvs

let pair_list = Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string)

(* --- Kv ------------------------------------------------------------------ *)

let test_kv_qualify () =
  check Alcotest.string "qualified" "mysql/mysqld/datadir"
    (Kv.qualify ~app:"mysql" [ "mysqld"; "datadir" ])

let test_kv_basename_app () =
  check Alcotest.string "basename" "datadir" (Kv.key_basename "mysql/mysqld/datadir");
  check Alcotest.string "app" "mysql" (Kv.app_of_key "mysql/mysqld/datadir")

let test_kv_find () =
  let kvs = [ Kv.make "a" "1"; Kv.make "b" "2"; Kv.make "a" "3" ] in
  check (Alcotest.option Alcotest.string) "first" (Some "1") (Kv.find kvs "a");
  check (Alcotest.list Alcotest.string) "all" [ "1"; "3" ] (Kv.find_all kvs "a");
  check (Alcotest.option Alcotest.string) "missing" None (Kv.find kvs "c")

(* --- INI ------------------------------------------------------------------ *)

let test_ini_basic () =
  let text = "[mysqld]\nport = 3306\ndatadir=/var/lib/mysql\n" in
  check pair_list "pairs"
    [ ("mysql/mysqld/port", "3306"); ("mysql/mysqld/datadir", "/var/lib/mysql") ]
    (kv_pairs (Ini.parse ~app:"mysql" text))

let test_ini_default_section () =
  check pair_list "main section" [ ("php/main/x", "1") ]
    (kv_pairs (Ini.parse ~app:"php" "x = 1\n"))

let test_ini_comments () =
  let text = "# full line\n[s]\nkey = value # trailing\n; semi comment\nk2 = v2\n" in
  check pair_list "comments stripped"
    [ ("a/s/key", "value"); ("a/s/k2", "v2") ]
    (kv_pairs (Ini.parse ~app:"a" text))

let test_ini_quoted_value_with_hash () =
  let text = "[s]\nkey = \"va#lue\"\n" in
  check pair_list "hash inside quotes survives" [ ("a/s/key", "va#lue") ]
    (kv_pairs (Ini.parse ~app:"a" text))

let test_ini_bare_flag () =
  let text = "[mysqld]\nskip-external-locking\n" in
  check pair_list "bare flag is on"
    [ ("mysql/mysqld/skip-external-locking", "on") ]
    (kv_pairs (Ini.parse ~app:"mysql" text))

let test_ini_include_skipped () =
  check pair_list "!include ignored" []
    (kv_pairs (Ini.parse ~app:"a" "!includedir /etc/mysql/conf.d/\n"))

let test_ini_render_roundtrip () =
  let kvs =
    [ Kv.make "mysql/mysqld/port" "3306";
      Kv.make "mysql/mysqld/datadir" "/srv/mysql";
      Kv.make "mysql/client/socket" "/tmp/mysql.sock" ]
  in
  let reparsed = Ini.parse ~app:"mysql" (Ini.render ~app:"mysql" kvs) in
  check pair_list "roundtrip" (kv_pairs kvs) (kv_pairs reparsed)

let test_ini_line_numbers () =
  let kvs = Ini.parse ~app:"a" "[s]\n\nkey = v\n" in
  match kvs with
  | [ kv ] -> check Alcotest.int "line" 3 kv.Kv.line
  | _ -> Alcotest.fail "expected one pair"

(* --- Apache --------------------------------------------------------------- *)

let apache_text =
  "# comment\n\
   ServerRoot \"/etc/apache2\"\n\
   Listen 80\n\
   KeepAlive On\n\
   LoadModule php5_module modules/libphp5.so\n\
   <Directory \"/var/www/html\">\n\
  \  Options Indexes\n\
  \  AllowOverride None\n\
   </Directory>\n"

let test_apache_directives () =
  let kvs = Apache.parse ~app:"apache" apache_text in
  check (Alcotest.option Alcotest.string) "quoted value" (Some "/etc/apache2")
    (Kv.find kvs "apache/ServerRoot");
  check (Alcotest.option Alcotest.string) "plain" (Some "80")
    (Kv.find kvs "apache/Listen")

let test_apache_multiarg () =
  let kvs = Apache.parse ~app:"apache" apache_text in
  check (Alcotest.option Alcotest.string) "LoadModule arg2"
    (Some "modules/libphp5.so")
    (Kv.find kvs "apache/LoadModule[php5_module]/arg2")

let test_apache_section_scoping () =
  let kvs = Apache.parse ~app:"apache" apache_text in
  check (Alcotest.option Alcotest.string) "scoped Options" (Some "Indexes")
    (Kv.find kvs "apache/Directory[/var/www/html]/Options")

let test_apache_synthetic_section_entry () =
  let kvs = Apache.parse ~app:"apache" apache_text in
  check (Alcotest.option Alcotest.string) "__section__" (Some "/var/www/html")
    (Kv.find kvs "apache/Directory/__section__")

let test_apache_nested_sections () =
  let text = "<Directory \"/a\">\n<Files \"x.html\">\nRequire all\n</Files>\n</Directory>\n" in
  let kvs = Apache.parse ~app:"apache" text in
  check (Alcotest.option Alcotest.string) "nested key" (Some "all")
    (Kv.find kvs "apache/Directory[/a]/Files[x.html]/Require")

let test_apache_section_paths () =
  let kvs = Apache.parse ~app:"apache" apache_text in
  (* bracketed parts of multi-argument directives are reported too *)
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "sections" [ ("Directory", "/var/www/html"); ("LoadModule", "php5_module") ]
    (Apache.section_paths
       (List.filter (fun (kv : Kv.t) -> Kv.key_basename kv.Kv.key <> "__section__") kvs))

let test_apache_render_roundtrip () =
  let kvs = Apache.parse ~app:"apache" apache_text in
  let rendered = Apache.render ~app:"apache" kvs in
  check Alcotest.bool "section tag rendered" true
    (Encore_util.Strutil.contains_sub rendered "<Directory /var/www/html>");
  let reparsed = Apache.parse ~app:"apache" rendered in
  check pair_list "roundtrip" (kv_pairs kvs) (kv_pairs reparsed)

let test_apache_bare_directive () =
  let kvs = Apache.parse ~app:"apache" "EnableMMAP\n" in
  check (Alcotest.option Alcotest.string) "flag value" (Some "on")
    (Kv.find kvs "apache/EnableMMAP")

let test_apache_repeated_directive () =
  let kvs = Apache.parse ~app:"apache" "Listen 80\nListen 443\n" in
  check (Alcotest.list Alcotest.string) "two instances" [ "80"; "443" ]
    (Kv.find_all kvs "apache/Listen")

(* --- sshd ----------------------------------------------------------------- *)

let sshd_text =
  "# openssh config\n\
   port 22\n\
   PermitRootLogin no\n\
   HostKey /etc/ssh/ssh_host_rsa_key\n\
   Match User backup\n\
  \  X11Forwarding no\n\
   Match all\n\
   UseDNS no\n"

let test_sshd_canonical_case () =
  let kvs = Sshd.parse ~app:"sshd" sshd_text in
  check (Alcotest.option Alcotest.string) "canonicalized Port" (Some "22")
    (Kv.find kvs "sshd/Port")

let test_sshd_match_scope () =
  let kvs = Sshd.parse ~app:"sshd" sshd_text in
  check (Alcotest.option Alcotest.string) "scoped" (Some "no")
    (Kv.find kvs "sshd/Match[User backup]/X11Forwarding");
  check (Alcotest.option Alcotest.string) "scope closed" (Some "no")
    (Kv.find kvs "sshd/UseDNS")

let test_sshd_equals_syntax () =
  let kvs = Sshd.parse ~app:"sshd" "MaxAuthTries=4\n" in
  check (Alcotest.option Alcotest.string) "= accepted" (Some "4")
    (Kv.find kvs "sshd/MaxAuthTries")

let test_sshd_render_roundtrip () =
  let kvs = Sshd.parse ~app:"sshd" sshd_text in
  let reparsed = Sshd.parse ~app:"sshd" (Sshd.render ~app:"sshd" kvs) in
  check pair_list "roundtrip"
    (List.sort compare (kv_pairs kvs))
    (List.sort compare (kv_pairs reparsed))

(* --- round-trip properties -------------------------------------------------- *)

let qtest = QCheck_alcotest.to_alcotest

let ident_gen =
  QCheck.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 1 8))

let value_gen =
  QCheck.Gen.(
    oneof
      [ string_size ~gen:(char_range 'a' 'z') (int_range 1 10);
        map string_of_int (int_range 0 99999);
        map (fun s -> "/" ^ s) (string_size ~gen:(char_range 'a' 'z') (int_range 1 8)) ])

let prop_ini_roundtrip =
  let pair_gen = QCheck.Gen.(triple ident_gen ident_gen value_gen) in
  QCheck.Test.make ~name:"ini render/parse roundtrip" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 1 10) pair_gen))
    (fun triples ->
      (* dedup keys: repeated keys are legal but reorder under render *)
      let kvs =
        List.sort_uniq Kv.compare_key
          (List.map
             (fun (s, k, v) -> Kv.make (Kv.qualify ~app:"x" [ s; k ]) v)
             triples)
      in
      let reparsed = Ini.parse ~app:"x" (Ini.render ~app:"x" kvs) in
      List.sort compare (kv_pairs kvs) = List.sort compare (kv_pairs reparsed))

let prop_sshd_roundtrip =
  let pair_gen = QCheck.Gen.(pair ident_gen value_gen) in
  QCheck.Test.make ~name:"sshd render/parse roundtrip" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 1 10) pair_gen))
    (fun pairs ->
      let kvs =
        List.sort_uniq Kv.compare_key
          (List.map (fun (k, v) -> Kv.make (Kv.qualify ~app:"sshd" [ k ]) v) pairs)
      in
      let reparsed = Sshd.parse ~app:"sshd" (Sshd.render ~app:"sshd" kvs) in
      List.sort compare (kv_pairs kvs) = List.sort compare (kv_pairs reparsed))

(* Apache's get/put law over configs the repo generates: the study
   population's httpd.conf files and their ConfErr mutants. *)
let apache_configs =
  lazy
    (let rng = Encore_util.Prng.create 31 in
     let images =
       Encore_workloads.Population.images
         (Encore_workloads.Population.generate ~seed:31 Image.Apache ~n:300)
     in
     let mutants =
       List.map
         (fun img ->
           (Encore_inject.Conferr.inject rng Image.Apache img ~n:2)
             .Encore_inject.Conferr.image)
         images
     in
     Array.of_list
       (List.filter_map
          (fun img ->
            Option.map
              (fun (c : Image.config_file) -> c.Image.text)
              (Image.config_for img Image.Apache))
          (images @ mutants)))

let prop_apache_roundtrip =
  QCheck.Test.make ~name:"apache render/parse roundtrip" ~count:600
    (QCheck.make
       ~print:(fun i -> (Lazy.force apache_configs).(i))
       QCheck.Gen.(int_bound (Array.length (Lazy.force apache_configs) - 1)))
    (fun i ->
      let kvs = Apache.parse ~app:"apache" (Lazy.force apache_configs).(i) in
      let reparsed = Apache.parse ~app:"apache" (Apache.render ~app:"apache" kvs) in
      List.sort compare (kv_pairs kvs) = List.sort compare (kv_pairs reparsed))

(* --- golden corpus --------------------------------------------------------
   Messy, realistic snippets every lens must survive. *)

let golden_mycnf =
  "# The MySQL database server configuration file.\n\
   #\n\
   [client]\n\
   port\t\t= 3306\n\
   socket\t\t= /var/run/mysqld/mysqld.sock\n\
   \n\
   [mysqld_safe]\n\
   socket\t\t= /var/run/mysqld/mysqld.sock\n\
   nice\t\t= 0\n\
   \n\
   [mysqld]\n\
   user\t\t= mysql\n\
   pid-file\t= /var/run/mysqld/mysqld.pid\n\
   basedir\t\t= /usr\n\
   datadir\t\t= /var/lib/mysql\n\
   tmpdir\t\t= /tmp\n\
   skip-external-locking\n\
   bind-address\t\t= 127.0.0.1  ; loopback only\n\
   key_buffer\t\t= 16M\n\
   max_allowed_packet\t= 16M\n\
   query_cache_limit\t= 1M\n\
   query_cache_size        = 16M\n\
   expire_logs_days\t= 10\n\
   max_binlog_size         = 100M\n\
   !includedir /etc/mysql/conf.d/\n"

let test_golden_mycnf () =
  let kvs = Ini.parse ~app:"mysql" golden_mycnf in
  check Alcotest.int "entry count" 17 (List.length kvs);
  check (Alcotest.option Alcotest.string) "tab-separated" (Some "mysql")
    (Kv.find kvs "mysql/mysqld/user");
  check (Alcotest.option Alcotest.string) "trailing semicolon comment"
    (Some "127.0.0.1")
    (Kv.find kvs "mysql/mysqld/bind-address");
  check (Alcotest.option Alcotest.string) "bare flag" (Some "on")
    (Kv.find kvs "mysql/mysqld/skip-external-locking");
  check (Alcotest.option Alcotest.string) "spaces around =" (Some "16M")
    (Kv.find kvs "mysql/mysqld/query_cache_size");
  (* the two same-named socket entries live in different sections *)
  check (Alcotest.option Alcotest.string) "client socket"
    (Some "/var/run/mysqld/mysqld.sock")
    (Kv.find kvs "mysql/client/socket");
  check (Alcotest.option Alcotest.string) "safe socket"
    (Some "/var/run/mysqld/mysqld.sock")
    (Kv.find kvs "mysql/mysqld_safe/socket")

let golden_httpd =
  "ServerRoot \"/etc/httpd\"\n\
   Listen 80\n\
   Include conf.modules.d/*.conf\n\
   User apache\n\
   Group apache\n\
   ServerAdmin root@localhost\n\
   # Deny access to the entirety of your server's filesystem.\n\
   <Directory />\n\
   \    AllowOverride none\n\
   \    Require all denied\n\
   </Directory>\n\
   DocumentRoot \"/var/www/html\"\n\
   <Directory \"/var/www\">\n\
   \    AllowOverride None\n\
   \    Require all granted\n\
   </Directory>\n\
   <IfModule dir_module>\n\
   \    DirectoryIndex index.html\n\
   </IfModule>\n\
   ErrorLog \"logs/error_log\"\n\
   LogLevel warn\n"

let test_golden_httpd () =
  let kvs = Apache.parse ~app:"apache" golden_httpd in
  check (Alcotest.option Alcotest.string) "quoted root" (Some "/etc/httpd")
    (Kv.find kvs "apache/ServerRoot");
  (* two Directory sections, one IfModule *)
  check (Alcotest.list Alcotest.string) "both sections seen"
    [ "/"; "/var/www" ]
    (Kv.find_all kvs "apache/Directory/__section__");
  check (Alcotest.option Alcotest.string) "indented scoped directive"
    (Some "None")
    (Kv.find kvs "apache/Directory[/var/www]/AllowOverride");
  check (Alcotest.option Alcotest.string) "IfModule scoped" (Some "index.html")
    (Kv.find kvs "apache/IfModule[dir_module]/DirectoryIndex");
  check (Alcotest.option Alcotest.string) "multi-arg Require" (Some "granted")
    (Kv.find kvs "apache/Directory[/var/www]/Require[all]/arg2");
  check (Alcotest.option Alcotest.string) "relative log path" (Some "logs/error_log")
    (Kv.find kvs "apache/ErrorLog")

let golden_sshd =
  "#\t$OpenBSD: sshd_config,v 1.100 2016/08/15 12:32:04 naddy Exp $\n\
   \n\
   # The strategy used for options in the default sshd_config\n\
   Port 22\n\
   #AddressFamily any\n\
   ListenAddress 0.0.0.0\n\
   HostKey /etc/ssh/ssh_host_rsa_key\n\
   HostKey /etc/ssh/ssh_host_ecdsa_key\n\
   SyslogFacility AUTHPRIV\n\
   PermitRootLogin no\n\
   AuthorizedKeysFile\t.ssh/authorized_keys\n\
   PasswordAuthentication yes\n\
   ChallengeResponseAuthentication no\n\
   UsePAM yes\n\
   X11Forwarding yes\n\
   AcceptEnv LANG LC_CTYPE LC_NUMERIC LC_TIME\n\
   Subsystem\tsftp\t/usr/libexec/openssh/sftp-server\n"

let test_golden_sshd () =
  let kvs = Sshd.parse ~app:"sshd" golden_sshd in
  check Alcotest.int "commented entries skipped" 15 (List.length kvs);
  (* repeated HostKey keeps both instances *)
  check (Alcotest.list Alcotest.string) "two host keys"
    [ "/etc/ssh/ssh_host_rsa_key"; "/etc/ssh/ssh_host_ecdsa_key" ]
    (Kv.find_all kvs "sshd/HostKey");
  check (Alcotest.option Alcotest.string) "tab separated" (Some ".ssh/authorized_keys")
    (Kv.find kvs "sshd/AuthorizedKeysFile");
  check (Alcotest.option Alcotest.string) "multi-arg subsystem"
    (Some "/usr/libexec/openssh/sftp-server")
    (Kv.find kvs "sshd/Subsystem[sftp]/arg2");
  check (Alcotest.option Alcotest.string) "multi-value AcceptEnv keeps rest"
    (Some "LC_CTYPE")
    (Kv.find kvs "sshd/AcceptEnv[LANG]/arg2")

(* --- Registry ------------------------------------------------------------- *)

let test_registry_default_lenses () =
  List.iter
    (fun app ->
      check Alcotest.bool (app ^ " has lens") true (Registry.lens_for app <> None))
    [ "apache"; "mysql"; "php"; "sshd" ]

let test_registry_parse_image () =
  let img =
    Image.make ~id:"t"
      [ { Image.app = Image.Mysql; path = "/etc/my.cnf"; text = "[mysqld]\nport=3306\n" };
        { Image.app = Image.Sshd; path = "/etc/ssh/sshd_config"; text = "Port 22\n" } ]
  in
  let kvs = Registry.parse_image img in
  check (Alcotest.option Alcotest.string) "mysql entry" (Some "3306")
    (Kv.find kvs "mysql/mysqld/port");
  check (Alcotest.option Alcotest.string) "sshd entry" (Some "22")
    (Kv.find kvs "sshd/Port")

let test_registry_custom_lens () =
  let lens =
    {
      Registry.parse = (fun ~app text -> [ Kv.make (app ^ "/raw") (String.trim text) ]);
      render = (fun ~app:_ _ -> "");
    }
  in
  Registry.register "customapp" lens;
  match Registry.lens_for "customapp" with
  | Some l ->
      check pair_list "custom parse" [ ("x/raw", "hello") ] (kv_pairs (l.Registry.parse ~app:"x" "hello\n"))
  | None -> Alcotest.fail "custom lens not registered"

(* A lens registered for a builtin app overrides it in both parses:
   the diagnostic parse that ingest runs judges an image by the same
   pairs the fold trains on. *)
let test_registry_override_both_parses () =
  let one_pair =
    {
      Registry.parse = (fun ~app:_ _ -> [ Kv.make "mysql/override" "1" ]);
      render = (fun ~app:_ _ -> "");
    }
  in
  let img =
    Image.make ~id:"o"
      [ { Image.app = Image.Mysql; path = "/etc/my.cnf";
          text = "[mysqld]\nport=3306\nuser=mysql\n" } ]
  in
  let builtin = kv_pairs (Registry.parse_image_diag img).Registry.kvs in
  Fun.protect
    ~finally:(fun () -> Registry.unregister "mysql")
    (fun () ->
      Registry.register "mysql" one_pair;
      check pair_list "parse_image" [ ("mysql/override", "1") ]
        (kv_pairs (Registry.parse_image img));
      check pair_list "parse_image_diag" [ ("mysql/override", "1") ]
        (kv_pairs (Registry.parse_image_diag img).Registry.kvs));
  check pair_list "builtin lens again after unregister" builtin
    (kv_pairs (Registry.parse_image_diag img).Registry.kvs);
  check Alcotest.int "builtin pairs" 2 (List.length builtin)

(* A registered lens that raises quarantines the file's image through a
   typed diagnostic instead of escaping. *)
let test_registry_raising_lens_is_fatal () =
  let raising =
    {
      Registry.parse = (fun ~app:_ _ -> invalid_arg "broken lens");
      render = (fun ~app:_ _ -> "");
    }
  in
  let img =
    Image.make ~id:"r"
      [ { Image.app = Image.Php; path = "/etc/php.ini"; text = "a = 1\n" } ]
  in
  let parsed =
    Fun.protect
      ~finally:(fun () -> Registry.unregister "php")
      (fun () ->
        Registry.register "php" raising;
        Registry.parse_image_diag img)
  in
  check pair_list "no pairs" [] (kv_pairs parsed.Registry.kvs);
  check (Alcotest.list Alcotest.string) "one custom-rule error"
    [ "custom-rule-error" ]
    (List.map
       (fun (d : Encore_util.Resilience.diagnostic) ->
         Encore_util.Resilience.kind_to_string d.Encore_util.Resilience.kind)
       parsed.Registry.fatal)

let () =
  Alcotest.run "encore_confparse"
    [
      ( "kv",
        [
          Alcotest.test_case "qualify" `Quick test_kv_qualify;
          Alcotest.test_case "basename/app" `Quick test_kv_basename_app;
          Alcotest.test_case "find" `Quick test_kv_find;
        ] );
      ( "ini",
        [
          Alcotest.test_case "basic" `Quick test_ini_basic;
          Alcotest.test_case "default section" `Quick test_ini_default_section;
          Alcotest.test_case "comments" `Quick test_ini_comments;
          Alcotest.test_case "quoted hash" `Quick test_ini_quoted_value_with_hash;
          Alcotest.test_case "bare flag" `Quick test_ini_bare_flag;
          Alcotest.test_case "!include skipped" `Quick test_ini_include_skipped;
          Alcotest.test_case "render roundtrip" `Quick test_ini_render_roundtrip;
          Alcotest.test_case "line numbers" `Quick test_ini_line_numbers;
        ] );
      ( "apache",
        [
          Alcotest.test_case "directives" `Quick test_apache_directives;
          Alcotest.test_case "multi-arg" `Quick test_apache_multiarg;
          Alcotest.test_case "section scoping" `Quick test_apache_section_scoping;
          Alcotest.test_case "synthetic __section__" `Quick test_apache_synthetic_section_entry;
          Alcotest.test_case "nested sections" `Quick test_apache_nested_sections;
          Alcotest.test_case "section_paths" `Quick test_apache_section_paths;
          Alcotest.test_case "render roundtrip" `Quick test_apache_render_roundtrip;
          Alcotest.test_case "bare directive" `Quick test_apache_bare_directive;
          Alcotest.test_case "repeated directive" `Quick test_apache_repeated_directive;
        ] );
      ( "sshd",
        [
          Alcotest.test_case "canonical case" `Quick test_sshd_canonical_case;
          Alcotest.test_case "Match scope" `Quick test_sshd_match_scope;
          Alcotest.test_case "equals syntax" `Quick test_sshd_equals_syntax;
          Alcotest.test_case "render roundtrip" `Quick test_sshd_render_roundtrip;
        ] );
      ( "roundtrip-properties",
        [ qtest prop_ini_roundtrip; qtest prop_sshd_roundtrip;
          qtest prop_apache_roundtrip ] );
      ( "golden",
        [
          Alcotest.test_case "debian my.cnf" `Quick test_golden_mycnf;
          Alcotest.test_case "stock httpd.conf" `Quick test_golden_httpd;
          Alcotest.test_case "openssh sshd_config" `Quick test_golden_sshd;
        ] );
      ( "registry",
        [
          Alcotest.test_case "default lenses" `Quick test_registry_default_lenses;
          Alcotest.test_case "parse image" `Quick test_registry_parse_image;
          Alcotest.test_case "custom lens" `Quick test_registry_custom_lens;
          Alcotest.test_case "override reaches both parses" `Quick
            test_registry_override_both_parses;
          Alcotest.test_case "raising lens is fatal" `Quick
            test_registry_raising_lens_is_fatal;
        ] );
    ]
