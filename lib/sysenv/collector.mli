(** Data collector (paper Figure 2, first stage).

    Serializes an image's environment into the textual "raw data" format
    the assembler consumes: one record per fact, mirroring the global
    data structures of paper Table 7 (FS.FileList, FS.FileMetaMap,
    Acct.UserList, Acct.GroupList, Service.PortServMap, Env.VarValueMap,
    Sec.SELinux, HW dims).  The round-trip exists so the pipeline can be
    exercised file-by-file exactly as the real tool was. *)

type record = { section : string; key : string; fields : string list }

val collect : Image.t -> record list
(** Dump every environment fact of the image. *)

val to_text : record list -> string
(** Stable line-oriented rendering: [section|key|field1|field2|...]. *)

val image_to_text : Image.t -> string
(** Whole-image dump: the on-disk unit of the fleet serving path.  An
    [ENCORE-IMAGE 1 <id>] magic line, optional [@flakiness] header,
    one [@config <app> <bytes> <path>] header per configuration file
    followed by exactly [bytes] bytes of verbatim config text, then
    [@env] and the {!to_text} rendering of {!collect}. *)

val image_of_text : string -> (Image.t, string) result
(** Inverse of {!image_to_text}: [image_of_text (image_to_text i)]
    rebuilds [i]'s id, configs, flakiness and environment.  Total —
    a malformed dump yields [Error] with a one-line reason, never an
    exception. *)
