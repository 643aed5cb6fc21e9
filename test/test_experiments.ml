(* Tests for graph I/O, the king torus, and the experiment harness. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

module G = Graphlib.Graph
module Gen = Graphlib.Gen
module Io = Graphlib.Io
module Apsp = Graphlib.Apsp

let test_io_roundtrip () =
  let rng = Util.Prng.create ~seed:4 in
  let g = Gen.gnp rng ~n:120 ~p:0.05 in
  let path = Filename.temp_file "ultrasparse" ".edges" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.write g path;
      let g' = Io.read path in
      checki "n preserved" (G.n g) (G.n g');
      checki "m preserved" (G.m g) (G.m g');
      G.iter_edges g (fun _ u v -> checkb "edge preserved" true (G.mem_edge g' u v)))

let test_io_comments_and_blanks () =
  let path = Filename.temp_file "ultrasparse" ".edges" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "# a comment\n\n3 2\n0 1\n\n# another\n1 2\n";
      close_out oc;
      let g = Io.read path in
      checki "n" 3 (G.n g);
      checki "m" 2 (G.m g))

(* Random graphs of up to 40 vertices, including empty and edgeless
   ones. *)
let arbitrary_graph =
  QCheck.make
    ~print:(fun g ->
      let b = Buffer.create 256 in
      Io.to_buffer g b;
      Buffer.contents b)
    QCheck.Gen.(
      map3
        (fun n p seed -> Gen.gnp (Util.Prng.create ~seed) ~n ~p)
        (int_bound 40) (float_bound_inclusive 0.3) int)

let prop_io_round_trip =
  QCheck.Test.make ~name:"io: of_string (to_buffer g) rebuilds g" ~count:100
    arbitrary_graph (fun g ->
      let b = Buffer.create 256 in
      Io.to_buffer g b;
      let g' = Io.of_string (Buffer.contents b) in
      G.n g' = G.n g
      && G.m g' = G.m g
      && List.for_all
           (fun e -> G.edge_endpoints g' e = G.edge_endpoints g e)
           (List.init (G.m g) Fun.id))

(* A damaged copy of a valid text: cut at a position, or one byte
   overwritten. *)
let mutate text (cut, pos, c) =
  let pos = pos mod (String.length text + 1) in
  if cut || pos = String.length text then String.sub text 0 pos
  else String.mapi (fun i x -> if i = pos then c else x) text

let prop_io_damage_fails_cleanly =
  QCheck.Test.make ~name:"io: damaged text parses or raises Failure"
    ~count:500
    QCheck.(pair arbitrary_graph (triple bool (int_bound 1_000_000) char))
    (fun (g, damage) ->
      let b = Buffer.create 256 in
      Io.to_buffer g b;
      match Io.of_string (mutate (Buffer.contents b) damage) with
      | _ -> true
      | exception Failure _ -> true)

let test_king_torus_shape () =
  let g = Gen.king_torus ~width:8 ~height:8 in
  checki "n" 64 (G.n g);
  checki "8-regular" 8 (G.max_degree g);
  checki "m" (64 * 8 / 2) (G.m g);
  checkb "connected" true (G.is_connected g);
  checki "diameter = side/2" 4 (Apsp.diameter g)

let test_experiment_registry () =
  checki "experiment count" 27 (List.length Experiments.Run.ids);
  List.iter
    (fun id -> checkb (id ^ " resolvable") true (Experiments.Run.by_id id <> None))
    Experiments.Run.ids;
  checkb "case-insensitive" true (Experiments.Run.by_id "e9" <> None);
  checkb "unknown rejected" true (Experiments.Run.by_id "E99" = None)

let test_e9_table_contents () =
  (* E9 is pure computation: check the actual reproduction claim in its
     rows (the "bound holds" column is always "yes"). *)
  let t = Experiments.Run.e9_contribution ~quick:true ~seed:1 () in
  checkb "has rows" true (List.length t.Experiments.Table.rows = 16);
  List.iter
    (fun row ->
      match List.rev row with
      | verdict :: _ -> Alcotest.check Alcotest.string "bound holds" "yes" verdict
      | [] -> Alcotest.fail "empty row")
    t.Experiments.Table.rows

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec at i = i + nl <= hl && (String.sub haystack i nl = needle || at (i + 1)) in
  nl = 0 || at 0

let test_table_rendering () =
  let t =
    {
      Experiments.Table.id = "T";
      title = "demo";
      reproduces = "nothing";
      columns = [ "a"; "b" ];
      rows = [ [ "1"; "22" ]; [ "333"; "4" ] ];
      notes = [ "a note" ];
    }
  in
  let s = Format.asprintf "%a" Experiments.Table.print t in
  checkb "mentions title" true (contains ~needle:"demo" s);
  checkb "mentions note" true (contains ~needle:"a note" s);
  checkb "aligned header" true (contains ~needle:"a    b" s)

let test_e6_rows_decay () =
  (* Theorem 4's shape: measured beta decays as tau grows. *)
  let t = Experiments.Run.e6_lb_eps_beta ~quick:true ~seed:5 () in
  let betas =
    List.map
      (fun row -> float_of_string (List.nth row 4))
      t.Experiments.Table.rows
  in
  let rec nonincreasing = function
    | a :: b :: rest -> a +. 0.5 >= b && nonincreasing (b :: rest)
    | _ -> true
  in
  checkb "beta decays with tau" true (nonincreasing betas)

let suite =
  [
    ( "graph.io",
      [
        Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
        Alcotest.test_case "comments & blanks" `Quick test_io_comments_and_blanks;
        QCheck_alcotest.to_alcotest prop_io_round_trip;
        QCheck_alcotest.to_alcotest prop_io_damage_fails_cleanly;
      ] );
    ( "graph.king_torus",
      [ Alcotest.test_case "shape" `Quick test_king_torus_shape ] );
    ( "experiments",
      [
        Alcotest.test_case "registry" `Quick test_experiment_registry;
        Alcotest.test_case "table rendering" `Quick test_table_rendering;
        Alcotest.test_case "E9 bound holds" `Quick test_e9_table_contents;
        Alcotest.test_case "E6 decays with tau" `Quick test_e6_rows_decay;
      ] );
  ]
