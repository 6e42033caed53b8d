module Ctype = Encore_typing.Ctype

type t = {
  tname : string;
  description : string;
  relation : Relation.t;
  slot_a : Ctype.t option;
  slot_b : Ctype.t option;
  min_confidence : float option;
}

let make ?slot_a ?slot_b ?min_confidence ~name ~description relation =
  { tname = name; description; relation; slot_a; slot_b; min_confidence }

let predefined =
  [
    make ~name:"equal" Relation.Eq_all
      ~description:"An entry should be equal to another entry of same type";
    make ~name:"equal-exists" Relation.Eq_exists
      ~description:
        "One instance of an entry should equal at least one instance of \
         another entry of same type";
    make ~name:"extended-boolean" (Relation.Bool_implies (false, false))
      ~description:
        "A boolean entry whose extended (environment) attribute has a \
         correlated boolean value";
    make ~name:"subnet" Relation.Subnet
      ~description:"An entry of IPAddress is a subnet of another entry";
    make ~name:"concat-path" Relation.Concat_path
      ~description:
        "Concatenation of a file path entry with a partial file path entry \
         forms a full file path";
    make ~name:"substring" Relation.Substring
      ~description:"An entry is a substring of another entry";
    make ~name:"user-in-group" Relation.User_in_group
      ~description:"The user name belongs to the group name";
    make ~name:"not-accessible" Relation.Not_accessible
      ~description:
        "The file path is not accessible by the user specified in the entry";
    make ~name:"ownership" Relation.Ownership
      ~description:
        "The entry of UserName is the owner of the file path specified in \
         the entry A";
    make ~name:"num-less" Relation.Num_less
      ~description:"The number in one entry is less than that of the other";
    make ~name:"size-less" Relation.Size_less
      ~description:"The size in one entry is smaller than that of the other";
  ]

(* An explicit slot type (from a customization file) overrides the
   relation's default type constraint: user-defined types must be able
   to fill e.g. the FilePath slot of the ownership relation. *)
let eligible_a t ctype =
  match t.slot_a with
  | Some required -> Ctype.equal required ctype
  | None -> Relation.slot_a_ok t.relation ctype

let eligible_b t ctype =
  match t.slot_b with
  | Some required -> Ctype.equal required ctype
  | None -> Relation.slot_b_ok t.relation ctype

let to_string t =
  let slot label = function
    | Some ct -> Printf.sprintf "[%s:%s]" label (Ctype.to_string ct)
    | None -> Printf.sprintf "[%s]" label
  in
  Printf.sprintf "%s %s %s" (slot "A" t.slot_a)
    (Relation.symbol t.relation)
    (slot "B" t.slot_b)

type rule = {
  template : t;
  attr_a : string;
  attr_b : string;
  support : int;
  confidence : float;
}

let rule_to_string r =
  Printf.sprintf "%s %s %s  (template=%s, sup=%d, conf=%.2f)" r.attr_a
    (Relation.symbol r.template.relation)
    r.attr_b r.template.tname r.support r.confidence
