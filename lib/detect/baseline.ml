module Row = Encore_dataset.Row
module Assemble = Encore_dataset.Assemble
module Stats = Encore_util.Stats

let stats_of_rows rows =
  let order = ref [] in
  let seen = Hashtbl.create 128 in
  let values = Hashtbl.create 128 in
  List.iter
    (fun row ->
      List.iter
        (fun (attr, v) ->
          if not (Hashtbl.mem seen attr) then begin
            Hashtbl.add seen attr ();
            order := attr :: !order
          end;
          Hashtbl.add values attr v)
        (Row.to_list row))
    rows;
  let known = List.rev !order in
  ( known,
    List.map (fun a -> (a, Stats.distinct (Hashtbl.find_all values a))) known )

let baseline_model images =
  let rows = List.map Assemble.parse_only images in
  let known_attrs, value_stats = stats_of_rows rows in
  Engine.compile
    {
      Engine.types = [];
      rules = [];
      value_stats;
      known_attrs;
      training_count = List.length images;
      overflowed = false;
    }

let no_rules_no_types =
  { Engine.check_names = true; check_rules = false; check_types = false;
    check_values = true }

let no_rules =
  { Engine.check_names = true; check_rules = false; check_types = true;
    check_values = true }

let baseline_check engine img =
  (* With model.types empty, the target row carries only the raw config
     entries plus image globals; globals are not in value_stats so the
     remaining work is pure value comparison.  Filter to configuration
     attributes so global facts never warn by name. *)
  let warnings = Engine.check ~checks:no_rules_no_types engine img in
  List.filter
    (fun w ->
      List.exists
        (fun attr -> Encore_util.Strutil.contains_char attr '/')
        w.Warning.attrs)
    warnings

let baseline_env_model images =
  let assembled = Assemble.assemble_training images in
  let rows = Encore_dataset.Table.rows assembled.Assemble.table in
  let known_attrs, value_stats =
    stats_of_rows (List.map snd rows)
  in
  Engine.compile
    {
      Engine.types = assembled.Assemble.types;
      rules = [];
      value_stats;
      known_attrs;
      training_count = List.length images;
      overflowed = false;
    }

let baseline_env_check engine img = Engine.check ~checks:no_rules engine img
