type lens = {
  parse : app:string -> string -> Kv.t list;
  render : app:string -> Kv.t list -> string;
}

let ini_lens = { parse = Ini.parse; render = Ini.render }
let apache_lens = { parse = Apache_lens.parse; render = Apache_lens.render }
let sshd_lens = { parse = Sshd_lens.parse; render = Sshd_lens.render }

(* The builtin lenses, each with its diagnostic-collecting parser.  The
   [lens] record stays minimal (registered lenses only have to supply
   parse/render), so the richer entry point rides beside it. *)
let builtins =
  [ ("apache", (apache_lens, Apache_lens.parse_diag));
    ("mysql", (ini_lens, Ini.parse_diag));
    ("php", (ini_lens, Ini.parse_diag));
    ("sshd", (sshd_lens, Sshd_lens.parse_diag)) ]

let default () = List.map (fun (app, (lens, _)) -> (app, lens)) builtins

let custom : (string, lens) Hashtbl.t = Hashtbl.create 8

let register name lens = Hashtbl.replace custom name lens
let unregister name = Hashtbl.remove custom name

(* The one lens lookup: a registered lens first, then the builtin one.
   Only a builtin comes with a diagnostic parser. *)
let resolve app =
  match Hashtbl.find_opt custom app with
  | Some lens -> Some (lens, None)
  | None ->
      Option.map
        (fun (lens, parse_diag) -> (lens, Some parse_diag))
        (List.assoc_opt app builtins)

let lens_for app = Option.map fst (resolve app)

let parse_config (cf : Encore_sysenv.Image.config_file) =
  let app = Encore_sysenv.Image.app_to_string cf.app in
  match lens_for app with None -> [] | Some lens -> lens.parse ~app cf.text

let parse_image (img : Encore_sysenv.Image.t) =
  match img.configs with
  | [ cf ] -> parse_config cf
  | configs -> List.concat_map parse_config configs

type image_parse = {
  kvs : Kv.t list;
  fatal : Encore_util.Resilience.diagnostic list;
  warnings : Encore_util.Resilience.diagnostic list;
}

let parse_image_diag (img : Encore_sysenv.Image.t) =
  let module Res = Encore_util.Resilience in
  let parse_file (cf : Encore_sysenv.Image.config_file) =
    let app = Encore_sysenv.Image.app_to_string cf.app in
    let subject = img.Encore_sysenv.Image.image_id ^ ":" ^ cf.path in
    match Res.scan_text ~subject cf.text with
    | _ :: _ as bad ->
        (* the file payload itself is damaged; parsing it would yield
           garbage attributes, so mark it fatal and keep its kvs out *)
        { kvs = []; fatal = bad; warnings = [] }
    | [] -> (
        match resolve app with
        | None -> { kvs = []; fatal = []; warnings = [] }
        | Some (_, Some parse_diag) ->
            let kvs, diags = parse_diag ~app cf.text in
            let warnings =
              List.map
                (fun (line, msg) ->
                  Res.diag Res.Parse_error
                    ~subject:(Printf.sprintf "%s:%d" subject line)
                    msg)
                diags
            in
            { kvs; fatal = []; warnings }
        | Some (lens, None) -> (
            (* registered lens: no diagnostic channel; a raising parser
               is a rule-author bug, surfaced as Custom_rule_error *)
            match lens.parse ~app cf.text with
            | kvs -> { kvs; fatal = []; warnings = [] }
            | exception e ->
                {
                  kvs = [];
                  fatal =
                    [ Res.diag Res.Custom_rule_error ~subject
                        (Printexc.to_string e) ];
                  warnings = [];
                }))
  in
  let files = List.map parse_file img.configs in
  {
    kvs = List.concat_map (fun f -> f.kvs) files;
    fatal = List.concat_map (fun f -> f.fatal) files;
    warnings = List.concat_map (fun f -> f.warnings) files;
  }
