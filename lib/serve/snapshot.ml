module Graph = Graphlib.Graph
module Edge_set = Graphlib.Edge_set

type t = {
  generation : int;
  k : int;
  seed : int;
  graph : Graph.t;  (** the spanner, re-indexed as its own CSR graph *)
  oracle : Oracle.Distance_oracle.t;
  routing : Oracle.Compact_routing.t option;
}

let of_graph ?(generation = 0) ?(k = 2) ?(seed = 1) ?(routing = false) g =
  if k < 1 then invalid_arg "Snapshot.of_graph: k must be >= 1";
  {
    generation;
    k;
    seed;
    graph = g;
    oracle = Oracle.Distance_oracle.build ~k ~seed g;
    routing = (if routing then Some (Oracle.Compact_routing.build ~seed g) else None);
  }

let build ?generation ?k ?seed ?routing ?(exclude = []) g spanner =
  let dead = Hashtbl.create (List.length exclude + 1) in
  List.iter (fun e -> Hashtbl.replace dead e ()) exclude;
  (* Collect surviving spanner edges in ascending edge-id order so the
     frozen graph's vertex adjacency (and thus every query structure)
     is deterministic in the input. *)
  let ids = ref [] in
  Edge_set.iter spanner (fun e -> if not (Hashtbl.mem dead e) then ids := e :: !ids);
  let ids = List.sort compare !ids in
  let b = Graph.Builder.create ~n:(Graph.n g) in
  List.iter
    (fun e ->
      let u, v = Graph.edge_endpoints g e in
      Graph.Builder.add_edge b u v)
    ids;
  of_graph ?generation ?k ?seed ?routing (Graph.Builder.build b)

let distance t u v = Oracle.Distance_oracle.query_est t.oracle u v

let route_hops t u v =
  match t.routing with
  | Some r -> Oracle.Compact_routing.route_hops r ~src:u ~dst:v
  | None -> -1

let has_routing t = t.routing <> None
let generation t = t.generation
let n t = Graph.n t.graph
let edges t = Graph.m t.graph
let oracle_k t = t.k
let oracle_entries t = Oracle.Distance_oracle.size t.oracle
let graph t = t.graph

let pp ppf t =
  Format.fprintf ppf "gen=%d edges=%d oracle k=%d entries=%d routing=%s"
    t.generation (edges t) t.k (oracle_entries t)
    (if has_routing t then "on" else "off")

(* Persistence: one header comment with the build parameters plus a
   checksum over the body, then the standard edge-list body.  Io skips
   '#' lines, so the body also reads as a plain graph file.  The
   checksum makes partial writes and bit-rot loud at load time; the
   write itself goes through a temp file + rename so a crashed save
   never leaves a half-written snapshot under the real name. *)

let adler32 s =
  let a = ref 1 and b = ref 0 in
  String.iter
    (fun c ->
      a := (!a + Char.code c) mod 65521;
      b := (!b + !a) mod 65521)
    s;
  (!b lsl 16) lor !a

let save t path =
  let body = Buffer.create 4096 in
  Graphlib.Io.to_buffer t.graph body;
  let body = Buffer.contents body in
  let header =
    Printf.sprintf "#snapshot gen=%d k=%d seed=%d routing=%d sum=0x%08x bytes=%d\n"
      t.generation t.k t.seed
      (if has_routing t then 1 else 0)
      (adler32 body) (String.length body)
  in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc header;
      output_string oc body;
      close_out oc);
  Sys.rename tmp path

let load ?generation path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  if text = "" then failwith (Printf.sprintf "%s: empty snapshot file" path);
  let len = String.length text in
  let header, body =
    match String.index_opt text '\n' with
    | Some i -> (String.sub text 0 i, String.sub text (i + 1) (len - i - 1))
    | None -> (text, "")
  in
  let bad_field name =
    Printf.sprintf "%s: bad snapshot header field %s" path name
  in
  let field name =
    let marker = name ^ "=" in
    let ml = String.length marker in
    let rec scan i =
      if i + ml > String.length header then
        failwith (Printf.sprintf "%s: snapshot header missing %s" path name)
      else if String.sub header i ml = marker then begin
        let stop = ref (i + ml) in
        while !stop < String.length header && header.[!stop] <> ' ' do
          incr stop
        done;
        let v = String.sub header (i + ml) (!stop - i - ml) in
        match int_of_string_opt v with
        | Some v -> v
        | None -> failwith (bad_field name)
      end
      else scan (i + 1)
    in
    if String.length header < 9 || String.sub header 0 9 <> "#snapshot" then
      failwith (Printf.sprintf "%s: not a snapshot file" path)
    else scan 9
  in
  let gen = field "gen" and k = field "k" and seed = field "seed" in
  if k < 1 then failwith (bad_field "k");
  let routing = field "routing" <> 0 in
  let sum = field "sum" and bytes = field "bytes" in
  if String.length body < bytes then
    failwith
      (Printf.sprintf "%s: truncated snapshot: %d of %d body bytes" path
         (String.length body) bytes)
  else if String.length body > bytes then
    failwith
      (Printf.sprintf
         "%s: snapshot body longer than declared: %d of %d body bytes" path
         (String.length body) bytes)
  else if adler32 body <> sum then
    failwith
      (Printf.sprintf
         "%s: snapshot checksum mismatch: stored 0x%08x, computed 0x%08x" path
         sum (adler32 body))
  else
    (* The checksum covers the bytes, not their meaning: the body still
       goes through the graph parser, whose errors name the file's own
       lines (the header is a comment to it). *)
    of_graph
      ~generation:(Option.value ~default:gen generation)
      ~k ~seed ~routing
      (Graphlib.Io.of_string ~source:path text)
