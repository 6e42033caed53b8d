(** String helpers: edit distance, path manipulation and the unit-suffix
    parsers used by the Size / Number configuration types. *)

val damerau_levenshtein : string -> string -> int
(** Restricted Damerau–Levenshtein distance (insert, delete, substitute,
    adjacent transposition).  Used by the entry-name violation check to
    decide whether an unseen key is a likely misspelling. *)

val damerau_levenshtein_below : limit:int -> string -> string -> int option
(** [Some d] when [damerau_levenshtein a b = d] and [d < limit],
    [None] otherwise.  Costs O(|b|) memory, and stops early once no
    alignment can finish under [limit]: the near-miss scan's way of
    rejecting far-off names cheaply. *)

val lowercase_ascii : string -> string

val starts_with : prefix:string -> string -> bool
val ends_with : suffix:string -> string -> bool
val contains_char : string -> char -> bool
val contains_sub : string -> string -> bool

val split_once : string -> string -> (string * string) option
(** [split_once s sep] splits at the first occurrence of substring
    [sep]: [split_once "a -- b" "--"] is [Some ("a ", " b")]. *)

val split_on : char -> string -> string list
(** Like [String.split_on_char] but drops empty fields. *)

val trim_lines : string -> string list
(** Split into lines, trimming each and dropping blank lines. *)

(** {1 Index scanning}

    For scanners that walk text by index and copy out only the slices
    they keep.  Each works on a range [\[i, stop)]; all but
    {!append_sub} allocate nothing. *)

val is_space : char -> bool
(** [String.trim]'s whitespace: space, tab, LF, CR and form feed. *)

val skip_spaces : string -> int -> int -> int
(** [skip_spaces s i stop]: the first index in [\[i, stop)] that is not
    {!is_space}, or [stop]. *)

val trim_end : string -> int -> int -> int
(** [trim_end s start stop]: [stop] moved left past trailing {!is_space}
    characters, but not below [start]. *)

val index_in : string -> char -> int -> int -> int
(** [index_in s c i stop]: the first index of [c] in [\[i, stop)], or
    [stop]. *)

val equal_sub : string -> int -> string -> bool
(** [equal_sub s i lit]: [s] holds [lit] from index [i] on. *)

val append_sub : string -> string -> int -> int -> string
(** [append_sub prefix s i stop] = [prefix ^ String.sub s i (stop - i)],
    built with one allocation. *)

val path_join : string -> string -> string
(** Join two path fragments with exactly one ['/'] between them. *)

val path_components : string -> string list
(** ["/a/b/c"] -> [\["a";"b";"c"\]]. *)

val dirname : string -> string
(** Directory part of a path; ["/"] for top-level entries. *)

val basename : string -> string

val parse_size : string -> int option
(** Parse ["64M"], ["8K"], ["1G"], ["2T"] or a bare byte count into
    bytes.  Case-insensitive suffix; [None] if unparsable. *)

val format_size : int -> string
(** Render a byte count with the largest exact unit suffix. *)

val parse_number : string -> float option
(** Decimal integer or float. *)

val is_int_string : string -> bool
