(* Fuzz suite for the text decoders a checked image passes through (the
   collector-dump decoder and the INI and Apache lenses) and for the
   statistics payload decoder that learning state is reloaded through.

   Inputs start from corpora the repo already makes — collector dumps
   of [Population] images and ConfErr mutants, and their configuration
   files — and are mutated by truncation, bit flips, NUL and CR bytes,
   spliced header and record lines, and 1 MB lines.  Every decoder must
   never raise ([Stack_overflow] included) and must return exactly what
   its pre-rewrite reference in [test/oracle] returns.  Deep Apache
   nesting must stay cheap.  Mutants of a real statistics payload
   (truncated, bit-flipped, lines dropped, duplicated or swapped, counts
   negated or garbled) must decode or be rejected without raising, and
   whatever decodes must finalize without raising. *)

module Collector = Encore_sysenv.Collector
module Image = Encore_sysenv.Image
module Fs = Encore_sysenv.Fs
module Ini = Encore_confparse.Ini
module Apache = Encore_confparse.Apache_lens
module Population = Encore_workloads.Population
module Profile = Encore_workloads.Profile
module Suffstats = Encore_rules.Suffstats
module Synthfleet = Encore_workloads.Synthfleet
module Conferr = Encore_inject.Conferr
module Prng = Encore_util.Prng

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- corpora --------------------------------------------------------------- *)

let images =
  lazy
    (let rng = Prng.create 17 in
     let apps = [ Image.Mysql; Image.Apache; Image.Php; Image.Sshd ] in
     let base =
       List.concat_map
         (fun app -> Population.images (Population.generate ~seed:5 app ~n:8))
         apps
     in
     let mutants =
       List.concat_map
         (fun img ->
           match img.Image.configs with
           | { Image.app; _ } :: _ ->
               [ (Conferr.inject rng app img ~n:2).Conferr.image;
                 (Conferr.inject ~env_fault_fraction:1.0 rng app img ~n:2)
                   .Conferr.image ]
           | [] -> [])
         base
     in
     let lamp = Population.images (Population.generate_lamp ~seed:5 ~n:3 ()) in
     let flaky = List.map (fun img -> Image.with_flakiness img 0.25) lamp in
     base @ mutants @ lamp @ flaky @ Synthfleet.generate ~seed:5 ~n:4 ())

let dumps = lazy (Array.of_list (List.map Collector.image_to_text (Lazy.force images)))

let configs_of apps =
  lazy
    (Array.of_list
       (List.concat_map
          (fun img ->
            List.filter_map
              (fun (c : Image.config_file) ->
                if List.mem c.Image.app apps then Some c.Image.text else None)
              img.Image.configs)
          (Lazy.force images)))

let ini_texts = configs_of [ Image.Mysql; Image.Php ]
let apache_texts = configs_of [ Image.Apache ]

(* --- mutations ------------------------------------------------------------- *)

(* Positions are drawn as plain integers and taken modulo the length of
   the text they land in. *)
type mutation =
  | Truncate of int
  | Flip of int * int  (** byte, bit *)
  | Insert of int * string  (** at a byte *)
  | Splice of int * string  (** a line, inserted before a line *)

let show_mutation = function
  | Truncate k -> Printf.sprintf "truncate %d" k
  | Flip (k, b) -> Printf.sprintf "flip %d bit %d" k b
  | Insert (k, s) -> Printf.sprintf "insert %d %S" k s
  | Splice (k, s) -> Printf.sprintf "splice %d %S" k s

let line_starts text =
  0
  :: List.filter_map
       (fun i -> if text.[i] = '\n' then Some (i + 1) else None)
       (List.init (String.length text) Fun.id)

let insert_at text i s =
  String.sub text 0 i ^ s ^ String.sub text i (String.length text - i)

let apply text = function
  | Truncate k -> String.sub text 0 (k mod (String.length text + 1))
  | Flip (k, bit) ->
      if text = "" then text
      else
        let b = Bytes.of_string text in
        let i = k mod Bytes.length b in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
        Bytes.to_string b
  | Insert (k, s) -> insert_at text (k mod (String.length text + 1)) s
  | Splice (k, line) ->
      let starts = line_starts text in
      insert_at text (List.nth starts (k mod List.length starts)) (line ^ "\n")

(* Lines that look like the decoders' own structure: dump headers and
   records (good, bad and out of place), section headers and tags. *)
let splice_lines =
  [ "@env"; "@config mysql 12 /etc/my.cnf"; "@config apache 99999 /x";
    "@config mysql -1 /p"; "@config nope 3 /p"; "@config mysql 0x4 /p p";
    "@flakiness 0.5"; "@flakiness nan"; "@flakiness x";
    "FS|/srv/x|dir|root|root|755|0|"; "FS|/srv/y|file|u|g|0644|12|";
    "FS|/srv/z|symlink|u|g|777|0|/srv/x"; "FS|relative|file|a|b|644|1|";
    "FS|/a/../..|dir|r|r|7|0|"; "FS|/a\000b|file|r|r|644|1|";
    "FS|/q|file|r|r|9_9|1_000|"; "FS|/q|file|r|r|7777777777777777777777|-1|";
    "FS|/q|dir|r|r|755|0"; "FS|/q|dir|r|r|755|0||"; "FS||dir|r|r|755|0|";
    "Acct.User|u|1001|1001|/home/u|/bin/sh"; "Acct.User|u|x|1|/h|/s";
    "Acct.Group|g|1001|u|v"; "Acct.Group|g|"; "Service|8080|http-alt";
    "Service|x|y";
    (* out of order, repeated, or a user whose gid no group holds: the
       account and service builders' fallback paths *)
    "Acct.User|aaa|7|7|/h|/s"; "Acct.User|root|0|0|/root|/bin/sh";
    "Acct.User|mysql|4242|4242|/h|/s"; "Acct.Group|aaa|7";
    "Acct.Group|root|0|aaa"; "Acct.Group|mysql|27"; "Service|1|tcpmux";
    "Service|22|ssh2"; "Service|3306|mysql";
    "Env|LANG|C"; "Env|PATH"; "Sys|HostName"; "Sys|HostName|h2";
    "HW|Cores|abc"; "HW|Cores|8"; "Sec|SELinux|enforcing"; "OS|Version|";
    " |k|v"; "|k|v"; "FS"; "[mysqld]"; "[]"; "[ a ]"; "= v"; "k = \"v\"";
    "k=\" a \""; "key # c"; "\"a;b\" = c"; "!include x"; "<Directory /x>";
    "</Directory>"; "</directory>"; "<VirtualHost \"*:80\">"; "</VirtualHost>";
    "<>"; "</>"; "<"; "Listen \"\" 80"; "LoadModule \"a b\" c d e";
    "Options \"Indexes"; "# comment"; "\t" ]

let mutation_gen =
  let open QCheck.Gen in
  let pos = int_bound 1_000_000 in
  frequency
    [ (2, map (fun k -> Truncate k) pos);
      (3, map2 (fun k b -> Flip (k, b)) pos (int_bound 7));
      (2, map2 (fun k s -> Insert (k, s)) pos
            (oneofl [ "\000"; "\r"; "\r\n"; "\000\000"; "\n"; "|"; "\""; " " ]));
      (3, map2 (fun k l -> Splice (k, l)) pos (oneofl splice_lines)) ]

let mutated corpus =
  QCheck.make
    ~print:(fun (i, ms) ->
      Printf.sprintf "corpus #%d, %s" i
        (String.concat "; " (List.map show_mutation ms)))
    QCheck.Gen.(
      pair (int_bound (Array.length (Lazy.force corpus) - 1))
        (list_size (int_range 1 3) mutation_gen))

let mutant corpus (i, ms) = List.fold_left apply (Lazy.force corpus).(i) ms

(* Text assembled from tokens of the decoder's own syntax. *)
let token_text ?(prefix = "") tokens =
  QCheck.make ~print:(Printf.sprintf "%S")
    QCheck.Gen.(
      map
        (fun ts -> prefix ^ String.concat "" ts)
        (list_size (int_range 0 60) (oneofl tokens)))

(* --- properties -------------------------------------------------------------- *)

let total name f x =
  match f x with
  | r -> r
  | exception e ->
      QCheck.Test.fail_reportf "%s raised %s" name (Printexc.to_string e)

(* The reference's one raise: a dump whose last line is "@env", with no
   newline after it.  The scanner decodes it as an empty environment,
   which is what the reference returns once the newline is there. *)
let reference_decode text =
  match Oracle.Dump_ref.image_of_text text with
  | r -> r
  | exception Invalid_argument _ when String.ends_with ~suffix:"\n@env" text ->
      Oracle.Dump_ref.image_of_text (text ^ "\n")

let decode_agrees text =
  match (total "image_of_text" Collector.image_of_text text, reference_decode text) with
  | Ok a, Ok b ->
      compare a b = 0 && Collector.image_to_text a = Collector.image_to_text b
  | Error a, Error b -> String.equal a b
  | Ok _, Error e -> QCheck.Test.fail_reportf "decoded; the reference says %s" e
  | Error e, Ok _ -> QCheck.Test.fail_reportf "%s; the reference decoded" e

let ini_agrees text =
  total "Ini.parse_diag" (Ini.parse_diag ~app:"mysql") text
  = Oracle.Ini_ref.parse_diag ~app:"mysql" text

let apache_agrees text =
  total "Apache_lens.parse_diag" (Apache.parse_diag ~app:"apache") text
  = Oracle.Apache_ref.parse_diag ~app:"apache" text

let prop_dump_mutants =
  QCheck.Test.make ~name:"dump mutants = reference" ~count:1500
    (mutated dumps) (fun m -> decode_agrees (mutant dumps m))

let dump_tokens =
  [ "FS"; "|"; "/a"; "/a/b"; "dir"; "file"; "symlink"; "root"; "755"; "0o7";
    "1_0"; "-1"; "\n"; " "; "\t"; "\r"; "\000"; "Acct.User"; "Acct.Group";
    "Service"; "Env"; "Sys"; "HostName"; "HW"; "Cores"; "4"; "OS"; "Sec";
    "SELinux"; "enforcing"; ".."; "./"; "@env"; "@config "; "mysql "; "3 ";
    "@flakiness " ]

let prop_dump_tokens =
  QCheck.Test.make ~name:"dump token soup = reference" ~count:1500
    (token_text ~prefix:"ENCORE-IMAGE 1 fuzz\n" dump_tokens)
    decode_agrees

let prop_ini_mutants =
  QCheck.Test.make ~name:"ini mutants = reference" ~count:1500
    (mutated ini_texts) (fun m -> ini_agrees (mutant ini_texts m))

let ini_tokens =
  [ "["; "]"; "mysqld"; "="; " "; "\t"; "\""; "#"; ";"; "\n"; "\r"; "\000";
    "!include"; "key"; "v a l"; "\012"; "[client]"; " = "; "\"q\"" ]

let prop_ini_tokens =
  QCheck.Test.make ~name:"ini token soup = reference" ~count:1500
    (token_text ini_tokens) ini_agrees

let prop_apache_mutants =
  QCheck.Test.make ~name:"apache mutants = reference" ~count:1500
    (mutated apache_texts) (fun m -> apache_agrees (mutant apache_texts m))

let apache_tokens =
  [ "<Directory"; "</Directory>"; "</DIRECTORY>"; "<VirtualHost *:80>";
    "</virtualhost>"; "<"; ">"; "</"; "\""; " "; "\t"; "\n"; "\r"; "\000";
    "#"; "Listen"; "80"; "Options"; "a b"; "/var/www"; "LoadModule"; "\012" ]

let prop_apache_tokens =
  QCheck.Test.make ~name:"apache token soup = reference" ~count:1500
    (token_text apache_tokens) apache_agrees

(* --- statistics payloads ---------------------------------------------------- *)

(* the folded statistics of 16 clean mysql images *)
let stats_payload =
  lazy
    (let profile = { Profile.ec2 with Profile.latent_error_rate = 0.0 } in
     Suffstats.to_payload
       (Suffstats.of_images
          (Population.images
             (Population.generate ~profile ~seed:5 Image.Mysql ~n:16))))

type stats_edit =
  | Bytes of mutation  (** a truncation or a bit flip *)
  | Drop of int  (** a line *)
  | Dup of int
  | Swap of int * int
  | Prefix of int * string
      (** text before the first count on a line: ["-"] negates it *)

(* An edit of the whole payload or of its column records alone: the
   image dumps are most of its bytes, and their decoder is fuzzed
   above. *)
type stats_mutation = { columns_only : bool; edit : stats_edit }

let show_stats_mutation { columns_only; edit } =
  (if columns_only then "columns: " else "")
  ^
  match edit with
  | Bytes m -> show_mutation m
  | Drop k -> Printf.sprintf "drop line %d" k
  | Dup k -> Printf.sprintf "duplicate line %d" k
  | Swap (i, j) -> Printf.sprintf "swap lines %d and %d" i j
  | Prefix (k, p) -> Printf.sprintf "prefix the count of line %d with %S" k p

let on_lines text f =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  String.concat "\n" (f lines (Array.length lines))

(* [p] before the first digit run that opens a field *)
let prefix_count p line =
  let rec go i =
    if i >= String.length line then line
    else if
      i > 0
      && (line.[i - 1] = ',' || line.[i - 1] = ' ')
      && line.[i] >= '0' && line.[i] <= '9'
    then insert_at line i p
    else go (i + 1)
  in
  go 0

let apply_edit text = function
  | Bytes m -> apply text m
  | Drop k ->
      on_lines text (fun lines n ->
          List.filteri (fun i _ -> i <> k mod n) (Array.to_list lines))
  | Dup k ->
      on_lines text (fun lines n ->
          List.concat
            (List.mapi
               (fun i l -> if i = k mod n then [ l; l ] else [ l ])
               (Array.to_list lines)))
  | Swap (i, j) ->
      on_lines text (fun lines n ->
          let i = i mod n and j = j mod n in
          let li = lines.(i) in
          lines.(i) <- lines.(j);
          lines.(j) <- li;
          Array.to_list lines)
  | Prefix (k, p) ->
      on_lines text (fun lines n ->
          lines.(k mod n) <- prefix_count p lines.(k mod n);
          Array.to_list lines)

let apply_stats text { columns_only; edit } =
  let marker = "\n@stats\n" in
  match Encore_util.Strutil.split_once text marker with
  | Some (images, columns) when columns_only ->
      images ^ marker ^ apply_edit columns edit
  | _ -> apply_edit text edit

let stats_mutation_gen =
  let open QCheck.Gen in
  let pos = int_bound 1_000_000 in
  let edit =
    frequency
      [ (1, map (fun k -> Bytes (Truncate k)) pos);
        (2, map2 (fun k b -> Bytes (Flip (k, b))) pos (int_bound 7));
        (2, map (fun k -> Drop k) pos);
        (2, map (fun k -> Dup k) pos);
        (2, map2 (fun i j -> Swap (i, j)) pos pos);
        (3, map2 (fun k p -> Prefix (k, p)) pos
              (oneofl [ "-"; "-"; "x"; "0x"; "99999999999999999999" ])) ]
  in
  map2
    (fun columns_only edit -> { columns_only; edit })
    (frequencyl [ (3, true); (1, false) ])
    edit

let stats_mutants =
  QCheck.make
    ~print:(fun ms -> String.concat "; " (List.map show_stats_mutation ms))
    QCheck.Gen.(list_size (int_range 1 3) stats_mutation_gen)

let prop_stats_mutants =
  QCheck.Test.make ~name:"suffstats mutants never raise" ~count:300
    stats_mutants (fun ms ->
      let text = List.fold_left apply_stats (Lazy.force stats_payload) ms in
      match total "Suffstats.of_payload" Suffstats.of_payload text with
      | Error _ -> true
      | Ok stats ->
          ignore (total "Suffstats.learner_of" Suffstats.learner_of stats);
          true)

let test_stats_roundtrip () =
  let text = Lazy.force stats_payload in
  match Suffstats.of_payload text with
  | Ok stats ->
      check Alcotest.string "re-serialized byte-identically" text
        (Suffstats.to_payload stats)
  | Error (offset, e) -> Alcotest.failf "byte %d: %s" offset e

(* --- 1 MB lines --------------------------------------------------------------- *)

let mb = 1_000_000

(* one 1 MB line spliced before the middle line of the corpus's first text *)
let with_long_line corpus line =
  let text = (Lazy.force corpus).(0) in
  let starts = line_starts text in
  insert_at text (List.nth starts (List.length starts / 2)) (line ^ "\n")

let test_long_lines () =
  List.iter
    (fun line ->
      check Alcotest.bool "dump with a 1 MB line" true
        (decode_agrees (with_long_line dumps line)))
    [ String.make mb 'a'; "FS|/x|file|" ^ String.make mb 'r';
      "Acct.Group|g|7|" ^ String.make mb '|'; "Env|K|" ^ String.make mb ' ' ];
  List.iter
    (fun line ->
      check Alcotest.bool "ini with a 1 MB line" true
        (ini_agrees (with_long_line ini_texts line)))
    [ String.make mb 'k'; "k = \"" ^ String.make mb 'v' ^ "\"";
      String.make mb '"' ^ "#"; "[" ^ String.make mb ' ' ^ "]" ];
  List.iter
    (fun line ->
      check Alcotest.bool "apache with a 1 MB line" true
        (apache_agrees (with_long_line apache_texts line)))
    [ "Listen " ^ String.make mb 'x'; String.make mb '"';
      "<Directory " ^ String.make mb '/' ^ ">";
      "LoadModule" ^ String.concat "" (List.init (mb / 2) (fun _ -> " a")) ]

(* --- 100k file records ---------------------------------------------------- *)

(* The collector writes a tree's records ascending, parents first; the
   same records reversed take the decoder's sorting build, which must
   land on the same tree in O(n log n) (folding one-record inserts into
   sorted arrays would be quadratic). *)
let test_reversed_fs_records () =
  let records =
    List.concat
      (List.init 100 (fun d ->
           Printf.sprintf "FS|/d%03d|dir|root|root|755|0|" d
           :: List.init 1000 (fun f ->
                  Printf.sprintf "FS|/d%03d/f%05d|file|u%d|g|640|%d|" d
                    ((d * 1000) + f) (f mod 7) f)))
  in
  let dump lines =
    "ENCORE-IMAGE 1 big\n@env\n" ^ String.concat "\n" lines ^ "\n"
  in
  let decode text =
    match Collector.image_of_text text with
    | Ok img -> img.Image.fs
    | Error e -> Alcotest.failf "decode failed: %s" e
  in
  let sorted = decode (dump records) in
  let t0 = Unix.gettimeofday () in
  let reversed = decode (dump (List.rev records)) in
  let dt = Unix.gettimeofday () -. t0 in
  let listing fs = Fs.fold (fun p m acc -> (p, m) :: acc) fs [] in
  check Alcotest.int "100,100 paths" 100_100 (List.length (listing sorted));
  check Alcotest.bool "reversed records, same tree" true
    (listing sorted = listing reversed);
  check Alcotest.bool (Printf.sprintf "reversed decode in %.3f s < 5 s" dt)
    true (dt < 5.0)

(* --- deep nesting --------------------------------------------------------- *)

let openers n = List.init n (fun i -> Printf.sprintf "<Directory /d%d>\n" i)

(* The reference recounts the lines for each unclosed section, so this
   input is quadratic there. *)
let test_deep_nesting_bounded () =
  let text = String.concat "" (openers 10_000) in
  let t0 = Unix.gettimeofday () in
  let kvs, diags = Apache.parse_diag ~app:"apache" text in
  let dt = Unix.gettimeofday () -. t0 in
  check Alcotest.int "one section entry per opener" 10_000 (List.length kvs);
  check Alcotest.int "one unclosed diagnostic per opener" 10_000
    (List.length diags);
  check Alcotest.bool (Printf.sprintf "10k openers in %.3f s < 1 s" dt) true
    (dt < 1.0)

(* nested sections with a directive every 250 levels and at the deepest
   one: keys there carry the whole stack, so directives at every level
   would make the output itself quadratic *)
let nested n =
  String.concat ""
    (List.mapi
       (fun i o -> if i mod 250 = 249 || i = n - 1 then o ^ "  Options None\n" else o)
       (openers n))

let test_deep_nesting_reference () =
  check Alcotest.bool "2k nested sections = reference" true
    (apache_agrees (nested 2_000))

let () =
  Alcotest.run "fuzz"
    [
      ( "dump",
        [ qtest prop_dump_mutants; qtest prop_dump_tokens ] );
      ("ini", [ qtest prop_ini_mutants; qtest prop_ini_tokens ]);
      ("apache", [ qtest prop_apache_mutants; qtest prop_apache_tokens ]);
      ( "stats",
        [ Alcotest.test_case "suffstats payload round-trips" `Quick
            test_stats_roundtrip;
          qtest prop_stats_mutants ] );
      ( "bounds",
        [
          Alcotest.test_case "1 MB lines" `Quick test_long_lines;
          Alcotest.test_case "100k reversed FS records" `Quick
            test_reversed_fs_records;
          Alcotest.test_case "10k nested openers" `Quick test_deep_nesting_bounded;
          Alcotest.test_case "2k nested sections" `Quick test_deep_nesting_reference;
        ] );
    ]
