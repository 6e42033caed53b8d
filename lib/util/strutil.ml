let damerau_levenshtein a b =
  let la = String.length a and lb = String.length b in
  if la = 0 then lb
  else if lb = 0 then la
  else begin
    (* d.(i).(j) = distance between the first i chars of a and first j of b *)
    let d = Array.make_matrix (la + 1) (lb + 1) 0 in
    for i = 0 to la do
      d.(i).(0) <- i
    done;
    for j = 0 to lb do
      d.(0).(j) <- j
    done;
    for i = 1 to la do
      for j = 1 to lb do
        let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
        let best =
          min
            (min (d.(i - 1).(j) + 1) (d.(i).(j - 1) + 1))
            (d.(i - 1).(j - 1) + cost)
        in
        let best =
          if
            i > 1 && j > 1
            && a.[i - 1] = b.[j - 2]
            && a.[i - 2] = b.[j - 1]
          then min best (d.(i - 2).(j - 2) + 1)
          else best
        in
        d.(i).(j) <- best
      done
    done;
    d.(la).(lb)
  end

(* The same table as [damerau_levenshtein], kept as three rolling rows
   (i-2 for transpositions, i-1, i).  Only the band |i - j| < limit can
   hold a cell under [limit] (a cell is at least |i - j|), so each row
   fills just that band, and the cells flanking it read [limit]: a path
   through them cannot finish under [limit] either.  A row's minimum is
   at least the smaller of the previous row's minimum and the one
   before it plus one, so once two consecutive rows reach [limit] every
   later row does too and the distance cannot come in under it. *)
let damerau_levenshtein_below ~limit a b =
  let la = String.length a and lb = String.length b in
  if abs (la - lb) >= limit then None
  else begin
    let h = min (limit - 1) (la + lb) in
    let row2 = ref (Array.make (lb + 2) limit) in
    let row1 = ref (Array.make (lb + 2) limit) in
    let row = ref (Array.make (lb + 2) limit) in
    for j = 0 to min lb h do
      !row1.(j) <- j
    done;
    let min1 = ref 0 and cut = ref false and i = ref 1 in
    while (not !cut) && !i <= la do
      let r = !row and r1 = !row1 and r2 = !row2 and ii = !i in
      let jlo = max 1 (ii - h) and jhi = min lb (ii + h) in
      r.(jlo - 1) <- (if jlo = 1 then ii else limit);
      let rmin = ref r.(jlo - 1) in
      for j = jlo to jhi do
        let cost = if a.[ii - 1] = b.[j - 1] then 0 else 1 in
        let best = min (min (r1.(j) + 1) (r.(j - 1) + 1)) (r1.(j - 1) + cost) in
        let best =
          if ii > 1 && j > 1 && a.[ii - 1] = b.[j - 2] && a.[ii - 2] = b.[j - 1]
          then min best (r2.(j - 2) + 1)
          else best
        in
        r.(j) <- best;
        if best < !rmin then rmin := best
      done;
      if jhi < lb then r.(jhi + 1) <- limit;
      cut := !rmin >= limit && !min1 >= limit;
      min1 := !rmin;
      row2 := r1;
      row1 := r;
      row := r2;
      incr i
    done;
    let d = (!row1).(lb) in
    if (not !cut) && d < limit then Some d else None
  end

let lowercase_ascii = String.lowercase_ascii

let starts_with ~prefix s = String.starts_with ~prefix s
let ends_with ~suffix s = String.ends_with ~suffix s

let contains_char s c = String.contains s c

let contains_sub s sub =
  let ls = String.length s and lsub = String.length sub in
  if lsub = 0 then true
  else if lsub > ls then false
  else
    let rec go i =
      if i + lsub > ls then false
      else if String.sub s i lsub = sub then true
      else go (i + 1)
    in
    go 0

let split_once s sep =
  let ls = String.length s and lsep = String.length sep in
  if lsep = 0 then None
  else
    let rec go i =
      if i + lsep > ls then None
      else if String.sub s i lsep = sep then
        Some (String.sub s 0 i, String.sub s (i + lsep) (ls - i - lsep))
      else go (i + 1)
    in
    go 0

let split_on c s =
  List.filter (fun f -> f <> "") (String.split_on_char c s)

let trim_lines s =
  String.split_on_char '\n' s
  |> List.map String.trim
  |> List.filter (fun l -> l <> "")

let is_space = function ' ' | '\t' | '\n' | '\r' | '\012' -> true | _ -> false

let rec skip_spaces s i stop =
  if i < stop && is_space s.[i] then skip_spaces s (i + 1) stop
  else i

let rec trim_end s start stop =
  if stop > start && is_space s.[stop - 1] then
    trim_end s start (stop - 1)
  else stop

let rec index_in s c i stop =
  if i >= stop || s.[i] = c then i else index_in s c (i + 1) stop

let rec equal_from s i lit j n =
  j >= n || (s.[i + j] = lit.[j] && equal_from s i lit (j + 1) n)

let equal_sub s i lit =
  let n = String.length lit in
  i >= 0 && i + n <= String.length s && equal_from s i lit 0 n

let append_sub prefix s i stop =
  let pl = String.length prefix in
  let b = Bytes.create (pl + stop - i) in
  Bytes.blit_string prefix 0 b 0 pl;
  Bytes.blit_string s i b pl (stop - i);
  Bytes.unsafe_to_string b

let path_join a b =
  let a = if ends_with ~suffix:"/" a && a <> "/" then String.sub a 0 (String.length a - 1) else a in
  let b = if starts_with ~prefix:"/" b then String.sub b 1 (String.length b - 1) else b in
  if a = "/" then "/" ^ b else a ^ "/" ^ b

let path_components p = split_on '/' p

let dirname p =
  match String.rindex_opt p '/' with
  | None | Some 0 -> "/"
  | Some i -> String.sub p 0 i

let basename p =
  match String.rindex_opt p '/' with
  | None -> p
  | Some i -> String.sub p (i + 1) (String.length p - i - 1)

let parse_size s =
  let s = String.trim s in
  let n = String.length s in
  if n = 0 then None
  else
    let mult, digits =
      match Char.uppercase_ascii s.[n - 1] with
      | 'K' -> (1024, String.sub s 0 (n - 1))
      | 'M' -> (1024 * 1024, String.sub s 0 (n - 1))
      | 'G' -> (1024 * 1024 * 1024, String.sub s 0 (n - 1))
      | 'T' -> (1024 * 1024 * 1024 * 1024, String.sub s 0 (n - 1))
      | '0' .. '9' -> (1, s)
      | _ -> (0, "")
    in
    if mult = 0 || digits = "" then None
    else
      match int_of_string_opt (String.trim digits) with
      | Some v when v >= 0 -> Some (v * mult)
      | Some _ | None -> None

let format_size bytes =
  let units = [ (1024 * 1024 * 1024 * 1024, "T"); (1024 * 1024 * 1024, "G"); (1024 * 1024, "M"); (1024, "K") ] in
  let rec go = function
    | [] -> string_of_int bytes
    | (m, suffix) :: rest ->
        if bytes >= m && bytes mod m = 0 then string_of_int (bytes / m) ^ suffix
        else go rest
  in
  if bytes = 0 then "0" else go units

let parse_number s = float_of_string_opt (String.trim s)

let is_int_string s =
  match int_of_string_opt (String.trim s) with Some _ -> true | None -> false
