module Prng = Encore_util.Prng
module Image = Encore_sysenv.Image
module Fault = Encore_inject.Fault
module Conferr = Encore_inject.Conferr

type labeled = { image : Image.t; latent : Fault.injection list }

let generator_for = function
  | Image.Apache -> Apache_app.generate
  | Image.Mysql -> Mysql_app.generate
  | Image.Php -> Php_app.generate
  | Image.Sshd -> Sshd_app.generate

let catalog_for = function
  | Image.Apache -> Apache_app.catalog
  | Image.Mysql -> Mysql_app.catalog
  | Image.Php -> Php_app.catalog
  | Image.Sshd -> Sshd_app.catalog

let true_correlations_for = function
  | Image.Apache -> Apache_app.true_correlations
  | Image.Mysql -> Mysql_app.true_correlations
  | Image.Php -> Php_app.true_correlations
  | Image.Sshd -> Sshd_app.true_correlations

(* Latent errors are the "real" misconfigurations a population carries
   before any detector runs: predominantly environment-side problems
   (wrong ownership, wrong permission) plus value-level ones, matching
   the category mix of paper Table 10. *)
let latent_faults =
  [ (3.0, Fault.Env_fault Fault.Chown_flip);
    (2.0, Fault.Env_fault Fault.Perm_flip);
    (1.0, Fault.Env_fault Fault.Symlink_inject);
    (2.0, Fault.Config_fault Fault.Wrong_path);
    (1.5, Fault.Config_fault Fault.Path_to_file);
    (2.0, Fault.Config_fault Fault.Size_inversion);
    (1.0, Fault.Config_fault Fault.Wrong_user) ]

let seed_latent rng app image rate =
  if not (Prng.chance rng rate) then { image; latent = [] }
  else
    let fault = Prng.weighted rng latent_faults in
    match Conferr.inject_one rng app image fault with
    | Some (image, injection) -> { image; latent = [ injection ] }
    | None -> { image; latent = [] }

let generate ?(profile = Profile.ec2) ~seed app ~n =
  let rng = Prng.create seed in
  List.init n (fun i ->
      let sub = Prng.split rng in
      let id = Printf.sprintf "%s-%s-%03d" profile.Profile.label
          (Image.app_to_string app) i in
      let image = generator_for app profile sub ~id in
      seed_latent sub app image profile.Profile.latent_error_rate)

let images labeled = List.map (fun l -> l.image) labeled

let clean labeled =
  List.filter_map (fun l -> if l.latent = [] then Some l.image else None) labeled

let generate_lamp ?(profile = Profile.private_cloud) ~seed ~n () =
  let rng = Prng.create seed in
  List.init n (fun i ->
      let sub = Prng.split rng in
      let id = Printf.sprintf "lamp-%03d" i in
      (* build one image whose three configs share an environment *)
      let mysql_img =
        Mysql_app.generate profile sub ~id:(id ^ "-mysql")
      in
      let apache_img = Apache_app.generate profile sub ~id:(id ^ "-apache") in
      (* merge: rebuild on one builder so the filesystem is shared *)
      let b = Imagebase.create sub in
      b.Imagebase.accounts <- mysql_img.Image.accounts;
      (* overlay apache's tree and accounts; the merged tree keeps
         mysql's root, whose metadata a generator may have set *)
      let records fs =
        List.rev (Encore_sysenv.Fs.fold (fun p m acc -> (p, m) :: acc) fs [])
      in
      let mysql_root =
        match Encore_sysenv.Fs.lookup mysql_img.Image.fs "/" with
        | Some m -> [ ("/", m) ]
        | None -> []
      in
      b.Imagebase.fs <-
        Encore_sysenv.Fs.of_list
          (mysql_root @ records mysql_img.Image.fs @ records apache_img.Image.fs);
      List.iter
        (fun (u : Encore_sysenv.Accounts.user) ->
          b.Imagebase.accounts <-
            Encore_sysenv.Accounts.add_user b.Imagebase.accounts u)
        (Encore_sysenv.Accounts.users apache_img.Image.accounts);
      let mysql_socket =
        let kvs =
          Encore_confparse.Ini.parse ~app:"mysql"
            (match Image.config_for mysql_img Image.Mysql with
             | Some c -> c.Image.text
             | None -> "")
        in
        Encore_confparse.Kv.find kvs "mysql/mysqld/socket"
      in
      let php_kvs =
        Php_app.config_kvs profile sub b ~web_user:"www-data"
          ~mysql_socket
      in
      let php_text = Encore_confparse.Ini.render ~app:"php" php_kvs in
      let configs =
        List.filter_map Fun.id
          [ Image.config_for apache_img Image.Apache;
            Image.config_for mysql_img Image.Mysql;
            Some { Image.app = Image.Php; path = "/etc/php5/php.ini"; text = php_text } ]
      in
      let image = Imagebase.build b ~id configs in
      { image; latent = [] })

let paper_training_sizes =
  [ (Image.Apache, 127); (Image.Mysql, 187); (Image.Php, 123) ]
