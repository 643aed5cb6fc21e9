type line = { key : string; args : string list; kv : (string * string) list }

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Lines *)

let split_kv tok =
  match String.index_opt tok '=' with
  | None -> (tok, "")
  | Some i -> (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))

let fold ~label step init text =
  let rec go no acc = function
    | [] -> Ok acc
    | raw :: rest -> (
        match List.filter (( <> ) "") (String.split_on_char ' ' (String.trim raw)) with
        | [] -> go (no + 1) acc rest
        | key :: _ when key.[0] = '#' -> go (no + 1) acc rest
        | key :: args -> (
            match step acc { key; args; kv = List.map split_kv args } with
            | Ok acc -> go (no + 1) acc rest
            | Error msg -> Error (Printf.sprintf "%s line %d: %s" label no msg)))
  in
  go 1 init (String.split_on_char '\n' text)

let render lines = String.concat "" (List.map (fun l -> l ^ "\n") lines)

let load parse path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse text
  | exception Sys_error msg -> Error msg

let save to_string x path =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (to_string x))

let unknown l = Error (Printf.sprintf "unknown directive %S" l.key)

(* ------------------------------------------------------------------ *)
(* Fields *)

let value k l = Option.to_result ~none:(Printf.sprintf "missing %s=" k) (List.assoc_opt k l.kv)

let typed conv k l =
  let* v = value k l in
  Option.to_result ~none:(Printf.sprintf "bad %s=%S" k v) (conv v)

let int = typed int_of_string_opt
let float = typed float_of_string_opt
let dist k l = Result.bind (value k l) Dsl.parse
let optional get k l = if List.mem_assoc k l.kv then Result.map Option.some (get k l) else Ok None
let default d get k l = if List.mem_assoc k l.kv then get k l else Ok d

let args conv l =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | tok :: rest -> (
        match conv tok with
        | Some x -> go (x :: acc) rest
        | None -> Error (Printf.sprintf "bad %s %S" l.key tok))
  in
  go [] l.args

let arg conv l =
  match args conv l with
  | Ok [ x ] -> Ok x
  | Ok _ -> Error (Printf.sprintf "%s takes exactly one token" l.key)
  | Error _ as e -> e

(* ------------------------------------------------------------------ *)
(* Tokens *)

let pair sep a b s =
  match String.split_on_char sep (String.trim s) with
  | [ x; y ] -> (
      match (a x, b y) with Some x, Some y -> Some (x, y) | _ -> None)
  | _ -> None

let int_pair sep = pair sep int_of_string_opt int_of_string_opt
let at = int_pair '@'
let edge = int_pair '-'
let edge_at = pair '@' edge int_of_string_opt
let at_to_string (v, r) = Printf.sprintf "%d@%d" v r
let edge_to_string (u, v) = Printf.sprintf "%d-%d" u v
let edge_at_to_string (e, r) = Printf.sprintf "%s@%d" (edge_to_string e) r

(* ------------------------------------------------------------------ *)
(* Directives both formats share *)

let fstr = Dsl.fstr

let graph ~p l =
  let* kind = value "kind" l in
  let* n = int "n" l in
  let* p = default p float "p" l in
  let* seed = int "seed" l in
  Ok (kind, n, p, seed)

let graph_line ~kind ~n ~p ~seed =
  Printf.sprintf "graph kind=%s n=%d p=%s seed=%d" kind n (fstr p) seed

let dup = arg float_of_string_opt
let dup_line d = if d > 0. then [ "dup " ^ fstr d ] else []

let delay ~max_delay l =
  let* p = float "p" l in
  let* max_delay = default max_delay int "max" l in
  Ok (p, max_delay)

let delay_line ~delay ~max_delay =
  if delay > 0. then [ Printf.sprintf "delay p=%s max=%d" (fstr delay) max_delay ] else []

let budget = int "rounds"
let budget_line = function None -> [] | Some r -> [ Printf.sprintf "budget rounds=%d" r ]

let workload l =
  let* queries = int "queries" l in
  let* route_frac = float "route" l in
  let* zipf = optional float "zipf" l in
  Ok { Serve.Workload.queries; zipf; route_frac }

let workload_line ?seed = function
  | None -> []
  | Some w ->
      let opt key f = function None -> "" | Some x -> Printf.sprintf " %s=%s" key (f x) in
      [
        Printf.sprintf "workload queries=%d%s route=%s%s" w.Serve.Workload.queries
          (opt "zipf" fstr w.Serve.Workload.zipf)
          (fstr w.Serve.Workload.route_frac) (opt "seed" string_of_int seed);
      ]

(* ------------------------------------------------------------------ *)
(* Graph-independent checks both formats run *)

let check ok fmt = Printf.ksprintf (fun msg -> if ok then Ok () else Error msg) fmt
let rate field v = check (v >= 0. && v <= 1.) "%s %g not in [0,1]" field v

let check_graph ~n ~p =
  let* () = check (n >= 2) "graph n %d < 2" n in
  rate "graph p" p

let check_delay ~dup ~delay ~max_delay =
  let* () = rate "dup" dup in
  let* () = rate "delay" delay in
  check (max_delay >= 1) "max_delay %d < 1" max_delay

let check_budget = function
  | Some b -> check (b >= 1) "budget rounds %d < 1" b
  | None -> Ok ()

let check_workload = function
  | None -> Ok ()
  | Some { Serve.Workload.queries; zipf; route_frac } ->
      let* () = check (queries >= 1) "workload queries %d < 1" queries in
      let* () = rate "workload route" route_frac in
      match zipf with
      | Some z when z < 0. -> Error (Printf.sprintf "workload zipf %g negative" z)
      | _ -> Ok ()
