(* Parallel arrays, [ports] strictly ascending and [names.(i)] the name
   of [ports.(i)], with no spare capacity: two equal registries are
   equal under polymorphic comparison. *)
type t = { ports : int array; names : string array }

let empty = { ports = [||]; names = [||] }

(* The index of [port] in [ports], or [-1 - i] with [i] its insertion
   point. *)
let rec search ports port lo hi =
  if lo >= hi then -1 - lo
  else
    let mid = (lo + hi) lsr 1 in
    let p = ports.(mid) in
    if p = port then mid
    else if p < port then search ports port (mid + 1) hi
    else search ports port lo mid

let index t port = search t.ports port 0 (Array.length t.ports)

let add t ~port ~name =
  let i = index t port in
  if i >= 0 then begin
    let names = Array.copy t.names in
    names.(i) <- name;
    { t with names }
  end
  else
    let i = -1 - i and n = Array.length t.ports in
    let ports = Array.make (n + 1) port and names = Array.make (n + 1) name in
    Array.blit t.ports 0 ports 0 i;
    Array.blit t.ports i ports (i + 1) (n - i);
    Array.blit t.names 0 names 0 i;
    Array.blit t.names i names (i + 1) (n - i);
    { ports; names }

let rec ascending (records : (int * string) list) =
  match records with
  | (p, _) :: ((q, _) :: _ as rest) -> p < q && ascending rest
  | [ _ ] | [] -> true

(* Any other order: a stable sort keeps each port's records in input
   order, and the last of them wins. *)
let of_unordered records =
  let sorted = List.stable_sort (fun (p, _) (q, _) -> Int.compare p q) records in
  let rec last_per_port = function
    | (p, _) :: ((q, _) :: _ as rest) when p = q -> last_per_port rest
    | r :: rest -> r :: last_per_port rest
    | [] -> []
  in
  let kept = Array.of_list (last_per_port sorted) in
  { ports = Array.map fst kept; names = Array.map snd kept }

let of_list records =
  if ascending records then begin
    let n = List.length records in
    let ports = Array.make n 0 and names = Array.make n "" in
    List.iteri
      (fun i (port, name) ->
        ports.(i) <- port;
        names.(i) <- name)
      records;
    { ports; names }
  end
  else of_unordered records

let base =
  of_list
    [ (21, "ftp"); (22, "ssh"); (23, "telnet"); (25, "smtp"); (53, "domain");
      (80, "http"); (110, "pop3"); (143, "imap"); (443, "https");
      (465, "smtps"); (587, "submission"); (993, "imaps"); (995, "pop3s");
      (3306, "mysql"); (5432, "postgresql"); (6379, "redis");
      (8080, "http-alt"); (8443, "https-alt"); (11211, "memcached") ]

let known_port t port = index t port >= 0

let service_of_port t port =
  let i = index t port in
  if i >= 0 then Some t.names.(i) else None

(* the highest port of that name *)
let port_of_service t name =
  let rec from i =
    if i < 0 then None else if t.names.(i) = name then Some t.ports.(i) else from (i - 1)
  in
  from (Array.length t.names - 1)

let ports t = Array.to_list t.ports
