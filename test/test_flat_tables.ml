(* Differential test of the frozen serving tables: the flat CSR
   [Distance_oracle] and [Compact_routing] must answer exactly like the
   per-node [Hashtbl] versions they replaced, which are kept here
   verbatim as references.  Also pins the serving fast paths at zero
   minor words per call. *)

module Gen = Graphlib.Gen
module Graph = Graphlib.Graph
module Bfs = Graphlib.Bfs
module Routing = Oracle.Compact_routing
module Oracle = Oracle.Distance_oracle

module Ref_oracle = struct
  type t = {
    k : int;
    levels : int array;
    pivots : int array array;  (** pivots.(i).(v) = p_i(v), -1 if none *)
    pivot_dist : int array array;
    bunches : (int, int) Hashtbl.t array;  (** bunches.(v) : w -> delta(v,w) *)
  }

  let draw_levels rng ~n ~k =
    let p = float_of_int n ** (-1. /. float_of_int k) in
    Array.init n (fun _ ->
        let rec climb i =
          if i >= k - 1 then k - 1
          else if Util.Prng.bernoulli rng p then climb (i + 1)
          else i
        in
        climb 0)

  (* Truncated BFS from a level-i center w, pruned by the Thorup–Zwick
     cluster condition delta(v, w) < delta(v, A_{i+1}): exactly the
     vertices whose bunch receives w. *)
  let grow_cluster g ~center ~next_dist ~visit =
    let dist : (int, int) Hashtbl.t = Hashtbl.create 32 in
    let q = Queue.create () in
    Hashtbl.replace dist center 0;
    Queue.add center q;
    while not (Queue.is_empty q) do
      let x = Queue.pop q in
      let dx = Hashtbl.find dist x in
      visit ~v:x ~dist:dx;
      Graph.iter_neighbors g x (fun y _ ->
          if not (Hashtbl.mem dist y) then begin
            let dy = dx + 1 in
            if dy < next_dist.(y) then begin
              Hashtbl.replace dist y dy;
              Queue.add y q
            end
          end)
    done

  let build ~k ~seed g =
    if k < 1 then invalid_arg "Distance_oracle.build: k must be >= 1";
    let n = Graph.n g in
    let rng = Util.Prng.create ~seed in
    let levels = draw_levels rng ~n ~k in
    let members i =
      let acc = ref [] in
      Array.iteri (fun v l -> if l >= i then acc := v :: !acc) levels;
      !acc
    in
    let pivots = Array.make k [||] in
    let pivot_dist = Array.make k [||] in
    let dist_to_level = Array.make (k + 1) [||] in
    for i = 0 to k - 1 do
      let f = Bfs.multi_source g ~sources:(members i) in
      pivots.(i) <- f.Bfs.source;
      pivot_dist.(i) <- f.Bfs.dist;
      dist_to_level.(i) <- Array.map (fun d -> if d < 0 then max_int else d) f.Bfs.dist
    done;
    (* A_k = empty: delta(v, A_k) = infinity. *)
    dist_to_level.(k) <- Array.make n max_int;
    let bunches = Array.init n (fun _ -> Hashtbl.create 8) in
    for i = 0 to k - 1 do
      let next_dist = dist_to_level.(i + 1) in
      List.iter
        (fun w ->
          if levels.(w) = i then
            grow_cluster g ~center:w ~next_dist ~visit:(fun ~v ~dist ->
                Hashtbl.replace bunches.(v) w dist))
        (members i)
    done;
    { k; levels; pivots; pivot_dist; bunches }

  let query t u v =
    if u = v then Some 0
    else begin
      let rec loop i u v =
        if i >= t.k then None
        else begin
          let w = t.pivots.(i).(u) in
          if w < 0 then None
          else
            match Hashtbl.find_opt t.bunches.(v) w with
            | Some dwv -> Some (t.pivot_dist.(i).(u) + dwv)
            | None -> loop (i + 1) v u
        end
      in
      loop 0 u v
    end

  let query_est t u v =
    if u = v then 0
    else begin
      let rec loop i u v =
        if i >= t.k then -1
        else begin
          let w = t.pivots.(i).(u) in
          if w < 0 then -1
          else
            match Hashtbl.find_opt t.bunches.(v) w with
            | Some dwv -> t.pivot_dist.(i).(u) + dwv
            | None -> loop (i + 1) v u
        end
      in
      loop 0 u v
    end

  let k t = t.k

  let size t =
    let total = ref 0 in
    Array.iter (fun b -> total := !total + Hashtbl.length b) t.bunches;
    !total + (t.k * Array.length t.levels)

  let bunch_size t v = Hashtbl.length t.bunches.(v) + t.k
  let levels t = t.levels
end

module Ref_routing = struct
  type t = {
    g : Graph.t;
    landmarks : int list;
    home : int array;  (** nearest landmark per node, -1 unreachable *)
    landmark_next : (int, int) Hashtbl.t array;  (** node -> (landmark -> hop) *)
    direct_next : (int, int) Hashtbl.t array;
        (** node -> (destination -> hop): ball + write-set entries *)
  }

  let build ~seed g =
    let n = Graph.n g in
    let rng = Util.Prng.create ~seed in
    let q = if n <= 1 then 1. else 1. /. sqrt (float_of_int n) in
    let landmarks =
      let l = List.filter (fun _ -> Util.Prng.bernoulli rng q) (List.init n (fun v -> v)) in
      match l with [] when n > 0 -> [ 0 ] | l -> l
    in
    let landmark_next = Array.init n (fun _ -> Hashtbl.create 4) in
    let direct_next = Array.init n (fun _ -> Hashtbl.create 4) in
    (* One BFS forest per landmark: next hop towards the landmark at every
       node, and the forest itself for write-set registration. *)
    let forests =
      List.map
        (fun l ->
          let f = Bfs.multi_source g ~sources:[ l ] in
          Array.iteri
            (fun v parent ->
              if parent >= 0 then Hashtbl.replace landmark_next.(v) l parent)
            f.Bfs.parent;
          (l, f))
        landmarks
    in
    (* Home landmark = overall nearest. *)
    let home_forest = Bfs.multi_source g ~sources:landmarks in
    let home = home_forest.Bfs.source in
    let dist_to_l = home_forest.Bfs.dist in
    (* Write set: every node on the shortest path from l(v) to v (in
       l(v)'s BFS tree) learns the next hop towards v. *)
    List.iter
      (fun (l, f) ->
        for v = 0 to n - 1 do
          if home.(v) = l && f.Bfs.dist.(v) > 0 then begin
            let rec walk child x =
              Hashtbl.replace direct_next.(x) v child;
              let p = f.Bfs.parent.(x) in
              if x <> l && p >= 0 then walk x p
            in
            walk v f.Bfs.parent.(v)
          end
        done)
      forests;
    (* Ball entries: grow the Thorup–Zwick cluster of every vertex w
       ({v : delta(v,w) < delta(v,L)}) with predecessor pointers. *)
    let next_dist = Array.map (fun d -> if d < 0 then max_int else d) dist_to_l in
    for w = 0 to n - 1 do
      let dist : (int, int * int) Hashtbl.t = Hashtbl.create 8 in
      (* node -> (distance, next hop towards w) *)
      let qq = Queue.create () in
      Hashtbl.replace dist w (0, w);
      Queue.add w qq;
      while not (Queue.is_empty qq) do
        let x = Queue.pop qq in
        let dx, _ = Hashtbl.find dist x in
        Graph.iter_neighbors g x (fun y _ ->
            if not (Hashtbl.mem dist y) then begin
              let dy = dx + 1 in
              if dy < next_dist.(y) then begin
                Hashtbl.replace dist y (dy, x);
                Hashtbl.replace direct_next.(y) w x;
                Queue.add y qq
              end
            end)
      done
    done;
    { g; landmarks; home; landmark_next; direct_next }

  let route t ~src ~dst =
    if src = dst then Some [ src ]
    else begin
      let n = Graph.n t.g in
      let l = t.home.(dst) in
      let rec walk x acc hops =
        if hops > 4 * n then None
        else if x = dst then Some (List.rev (x :: acc))
        else
          match Hashtbl.find_opt t.direct_next.(x) dst with
          | Some next -> walk next (x :: acc) (hops + 1)
          | None -> (
              if l < 0 then None
              else
                match Hashtbl.find_opt t.landmark_next.(x) l with
                | Some next -> walk next (x :: acc) (hops + 1)
                | None -> if x = l then None else None)
      in
      walk src [] 0
    end

  let route_hops t ~src ~dst =
    if src = dst then 0
    else begin
      let n = Graph.n t.g in
      let l = t.home.(dst) in
      let rec walk x hops =
        if hops > 4 * n then -1
        else if x = dst then hops
        else
          match Hashtbl.find_opt t.direct_next.(x) dst with
          | Some next -> walk next (hops + 1)
          | None -> (
              if l < 0 then -1
              else
                match Hashtbl.find_opt t.landmark_next.(x) l with
                | Some next -> walk next (hops + 1)
                | None -> -1)
      in
      walk src 0
    end

  let table_size t v = Hashtbl.length t.landmark_next.(v) + Hashtbl.length t.direct_next.(v)

  let total_state t =
    let acc = ref 0 in
    for v = 0 to Graph.n t.g - 1 do
      acc := !acc + table_size t v
    done;
    !acc

  let landmarks t = t.landmarks
  let home_landmark t v = t.home.(v)
end

(* Random graphs, n from 2 to 300: sparse G(n,p) (often disconnected,
   with isolated vertices) or a connected G(n,p). *)
type case = { n : int; deg : float; connected : bool; k : int; seed : int }

let case_gen =
  QCheck.Gen.(
    map
      (fun (n, deg, connected, k, seed) -> { n; deg; connected; k; seed })
      (tup5 (int_range 2 300) (float_range 0. 6.) bool (int_range 1 3)
         (int_range 0 10_000)))

let print_case c =
  Printf.sprintf "n=%d deg=%.2f connected=%b k=%d seed=%d" c.n c.deg
    c.connected c.k c.seed

let graph_of c =
  let rng = Util.Prng.create ~seed:c.seed in
  let p = c.deg /. float_of_int (max 1 (c.n - 1)) in
  if c.connected then Gen.connected_gnp rng ~n:c.n ~p else Gen.gnp rng ~n:c.n ~p

let same_answers c =
  let g = graph_of c in
  let n = Graph.n g in
  let o = Oracle.build ~k:c.k ~seed:c.seed g in
  let ro = Ref_oracle.build ~k:c.k ~seed:c.seed g in
  let r = Routing.build ~seed:c.seed g in
  let rr = Ref_routing.build ~seed:c.seed g in
  let fail fmt = QCheck.Test.fail_reportf fmt in
  if Oracle.size o <> Ref_oracle.size ro then
    fail "size %d vs %d" (Oracle.size o) (Ref_oracle.size ro);
  if Oracle.levels o <> Ref_oracle.levels ro then fail "levels differ";
  if Routing.total_state r <> Ref_routing.total_state rr then
    fail "total_state %d vs %d" (Routing.total_state r)
      (Ref_routing.total_state rr);
  if Routing.landmarks r <> Ref_routing.landmarks rr then
    fail "landmarks differ";
  for v = 0 to n - 1 do
    if Oracle.bunch_size o v <> Ref_oracle.bunch_size ro v then
      fail "bunch_size %d" v;
    if Routing.table_size r v <> Ref_routing.table_size rr v then
      fail "table_size %d: %d vs %d" v (Routing.table_size r v)
        (Ref_routing.table_size rr v);
    if Routing.home_landmark r v <> Ref_routing.home_landmark rr v then
      fail "home_landmark %d" v;
    for u = 0 to n - 1 do
      if Oracle.query o u v <> Ref_oracle.query ro u v then fail "query %d %d" u v;
      if Oracle.query_est o u v <> Ref_oracle.query_est ro u v then
        fail "query_est %d %d" u v;
      if Routing.route r ~src:u ~dst:v <> Ref_routing.route rr ~src:u ~dst:v
      then fail "route %d %d" u v;
      if Routing.route_hops r ~src:u ~dst:v
         <> Ref_routing.route_hops rr ~src:u ~dst:v
      then fail "route_hops %d %d" u v
    done
  done;
  true

let prop_same_answers =
  QCheck.Test.make ~name:"flat tables answer like the Hashtbl reference"
    ~count:40
    (QCheck.make ~print:print_case case_gen)
    same_answers

(* Minor words over [calls] runs of [f]; the measurement's own
   constant overhead stays far below one word per call. *)
let words_per_call ~calls f =
  let w0 = Gc.minor_words () in
  for i = 0 to calls - 1 do
    f i
  done;
  (Gc.minor_words () -. w0) /. float_of_int calls

let test_fast_paths_allocate_nothing () =
  let g = Gen.connected_gnp (Util.Prng.create ~seed:31) ~n:200 ~p:0.04 in
  let o = Oracle.build ~k:2 ~seed:3 g in
  let r = Routing.build ~seed:3 g in
  let sink = ref 0 in
  let est =
    words_per_call ~calls:20_000 (fun i ->
        sink := !sink + Oracle.query_est o (i mod 200) (i * 7 mod 200))
  in
  let hops =
    words_per_call ~calls:20_000 (fun i ->
        sink := !sink + Routing.route_hops r ~src:(i mod 200) ~dst:(i * 13 mod 200))
  in
  ignore (Sys.opaque_identity !sink);
  Alcotest.(check (float 0.01)) "query_est words/call" 0. est;
  Alcotest.(check (float 0.01)) "route_hops words/call" 0. hops

let suite =
  [
    ( "oracle.flat_tables",
      [
        QCheck_alcotest.to_alcotest prop_same_answers;
        Alcotest.test_case "fast paths allocate nothing" `Quick
          test_fast_paths_allocate_nothing;
      ] );
  ]
