(* Tests for the JSONL codec shared by every file format: the string
   escaper, the tokenizer's located errors, and round-trips of the
   metrics, span and profile formats through names and labels that a
   substring scanner cannot survive. *)

module J = Obs.Jsonl
module M = Obs.Metrics
module S = Obs.Span
module P = Obs.Prof

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

let with_lines lines f =
  let file = Filename.temp_file "jsonl" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_bin file (fun oc ->
          List.iter
            (fun l ->
              output_string oc l;
              output_char oc '\n')
            lines);
      f file)

(* [load] of what [save] wrote to a fresh file. *)
let via_file save load =
  let file = Filename.temp_file "jsonl" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      save file;
      load file)

let read_lines file =
  In_channel.with_open_bin file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

(* ------------------------------------------------------------------ *)
(* Located errors, shared by the per-format parse-error tests *)

(* Every way to break one valid line: each non-blank strict prefix (a
   truncated write), each numeric value replaced by one that overflows
   an int, and a few garbage lines. *)
let corruptions line =
  let n = String.length line in
  let cuts =
    List.init n (fun i -> String.sub line 0 i)
    |> List.filter (fun p -> String.trim p <> "")
  in
  let is_digit c = c >= '0' && c <= '9' in
  let overflows = ref [] in
  let i = ref 0 in
  while !i < n do
    let start = !i in
    if is_digit line.[start] then begin
      while !i < n && is_digit line.[!i] do incr i done;
      let before =
        if start > 0 && line.[start - 1] = '-' then start - 2 else start - 1
      in
      if before >= 0 && String.contains ":[," line.[before] then
        overflows :=
          (String.sub line 0 start ^ "99999999999999999999"
          ^ String.sub line !i (n - !i))
          :: !overflows
    end
    else incr i
  done;
  cuts @ List.rev !overflows
  @ [ "garbage"; "{"; "}"; "[1,2]"; {|{"kind":1}|}; "\x00\xff";
      {|{"kind":"x",}|} ]

(* [load] must reject each corruption of [line], placed after the
   valid [good] lines, with a Parse_error naming the file, the
   corrupt line, and its text — and never any other exception. *)
let expect_located_errors ~load ~good line =
  List.iter
    (fun bad ->
      with_lines (good @ [ bad ]) (fun file ->
          match load file with
          | () -> Alcotest.failf "accepted %S" bad
          | exception J.Parse_error e ->
              checks "file" file e.file;
              checki (Printf.sprintf "line of %S" bad)
                (List.length good + 1)
                e.line;
              checkb "quotes the line" true
                (String.ends_with ~suffix:bad e.msg)
          | exception ex ->
              Alcotest.failf "%S raised %s" bad (Printexc.to_string ex)))
    (corruptions line)

let test_metrics_errors () =
  let r = M.create () in
  M.add (M.counter r ~labels:[ ("phase", "wave") ] "phase_rounds") 17;
  List.iter (M.observe (M.histogram r "lat")) [ 1; 2; 300 ];
  let lines = List.map M.to_json (M.snapshot r) in
  List.iter
    (expect_located_errors
       ~load:(fun f -> ignore (M.load f))
       ~good:[ {|{"kind":"meta","n":48}|} ])
    lines

(* ------------------------------------------------------------------ *)
(* The codec *)

let test_bench_shapes () =
  (* Both BENCH_*.json shapes, pretty-printed, with a null estimate. *)
  let timings = function
    | J.Array items ->
        List.map (function J.Object o -> o | _ -> assert false) items
    | J.Object o -> J.req o "timings" (J.list J.obj)
    | _ -> assert false
  in
  let entries lines =
    with_lines lines (fun file ->
        List.map
          (fun o -> (J.req o "name" J.string, J.opt o "ns_per_run" J.float))
          (timings (J.parse_file file)))
  in
  let want = [ ("e1.a", Some 7.5); ("e2.b", None) ] in
  checkb "bare array" true
    (entries
       [ "["; {|  {"name": "e1.a", "ns_per_run": 7.5},|};
         {|  {"name": "e2.b", "ns_per_run": null}|}; "]" ]
    = want);
  checkb "timings object" true
    (entries
       [ {|{"seed": 1, "mode": "quick", "timings": [|};
         {|  {"name": "e1.a", "ns_per_run": 7.5, "minor_words": 3},|};
         {|  {"name": "e2.b", "ns_per_run": null}|}; "]}" ]
    = want);
  (* a document error is located at its line *)
  match entries [ "["; {|  {"name": "e1.a", "ns_per_run": 7.5},|}; {|  {"n|} ] with
  | _ -> Alcotest.fail "expected Parse_error"
  | exception J.Parse_error e -> checki "line" 3 e.line

(* The string a JSON string literal decodes to, read from a file. *)
let decode lit =
  with_lines [ Printf.sprintf {|{"kind":"x","s":%s}|} lit ] (fun file ->
      match J.find_line file (fun _ -> true) with
      | Some (_, o) -> J.req o "s" J.string
      | None -> assert false)

let test_string_escapes () =
  checks "escapes" "\xc3\xa9\xf0\x9f\x98\x80\n/\"\\"
    (decode {|"\u00e9\ud83d\ude00\n\/\"\\"|});
  List.iter
    (fun lit ->
      match decode lit with
      | _ -> Alcotest.failf "accepted %s" lit
      | exception J.Parse_error e -> checki lit 1 e.line)
    [ {|"\ud800"|}; {|"\ude00"|}; {|"\u12"|}; {|"\x"|}; "\"a\tb\"" ]

let test_sweep_json_parses () =
  let agg =
    {
      Scenario.Sweep.scenario = {|a"b|};
      samples = 1;
      intact = 1;
      patched = 0;
      degraded = 0;
      partitioned = 0;
      failures = [];
      worst_rounds = 3;
      worst_words = 4;
      worst_size = 5;
      worst_stretch = 1.;
      stretch_bound = 3.;
    }
  in
  with_lines [ Scenario.Sweep.to_json agg ] (fun file ->
      J.iter_file file (fun kind o ->
          checks "kind" "sweep" kind;
          checks "scenario" {|a"b|} (J.req o "scenario" J.string)))

(* Strings that break a substring scanner: quotes, backslashes, the
   separators of the old label parser, control characters, UTF-8, and
   the field names of the surrounding line. *)
let nasty =
  QCheck.Gen.(
    list_size (int_range 0 6)
      (oneofl
         [ {|"|}; {|\|}; ","; ":"; "{"; "}"; "["; "]"; " "; "\n"; "\t"; "\r";
           "\x01"; "\x1f"; "\x7f"; "caf\xc3\xa9"; "\xe6\x97\xa5"; "a"; "z";
           "0"; "-1"; "value"; "count"; "sum"; "kind" ])
    >|= String.concat "")

let label_key =
  QCheck.Gen.(
    oneof
      [ oneofl [ "value"; "count"; "sum"; "kind"; "buckets"; "type" ]; nasty ])

let printable_ascii =
  QCheck.Gen.(string_size ~gen:(char_range ' ' '~') (int_range 0 40))

let prop_quote_is_percent_s =
  QCheck.Test.make ~name:"quote = %S on printable ASCII" ~count:300
    (QCheck.make ~print:(Printf.sprintf "%S") printable_ascii)
    (fun s -> J.quote s = Printf.sprintf "%S" s)

let prop_quote_roundtrip =
  QCheck.Test.make ~name:"quote decodes back to the same bytes" ~count:300
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(oneof [ nasty; string_size (int_range 0 20) ]))
    (fun s -> decode (J.quote s) = s)

let strip_samples (s : M.sample) =
  match s.M.value with
  | M.Histogram h ->
      { s with M.value = M.Histogram { h with M.samples = [||] } }
  | _ -> s

let prop_metrics_roundtrip =
  let value =
    QCheck.Gen.(oneof [ int_range (-1000) 100000; oneofl [ max_int; min_int ] ])
  in
  let instrument =
    QCheck.Gen.(
      quad (int_range 0 2) nasty
        (list_size (int_range 0 3) (pair label_key nasty))
        (list_size (int_range 0 5) value))
  in
  QCheck.Test.make ~name:"metrics: load (save r) = snapshot r" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 0 8) instrument))
    (fun specs ->
      let r = M.create () in
      List.iter
        (fun (kind, name, labels, values) ->
          try
            match kind with
            | 0 ->
                M.add (M.counter r ~labels name) (List.fold_left ( + ) 0 values)
            | 1 -> List.iter (M.set (M.gauge r ~labels name)) values
            | _ -> List.iter (M.observe (M.histogram r ~labels name)) values
          with Invalid_argument _ -> () (* same series, other kind *))
        specs;
      via_file (M.save ~extra:[ {|{"kind":"meta"}|} ] r) M.load
      = List.map strip_samples (M.snapshot r))

let prop_spans_roundtrip =
  let op = QCheck.Gen.(quad (int_range 0 3) nasty small_nat small_nat) in
  QCheck.Test.make ~name:"spans: load (save t) = records t" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 0 12) op))
    (fun ops ->
      let t = S.create () in
      let kinds = [| S.Phase; S.Call; S.Cluster; S.Arq; S.Retransmit |] in
      List.iteri
        (fun i (tag, name, a, b) ->
          match tag with
          | 0 ->
              S.deliver t ~round:(i + 1)
                (S.message t ~round:i ~src:a ~dst:b ~words:a)
          | 1 ->
              S.drop t ~round:(i + 1) ~reason:name
                (S.message t ~round:i ~src:a ~dst:b ~words:b)
          | 2 ->
              ignore
                (S.span t ~parent:(i - 1) kinds.(a mod 5) ~name ~start_round:a
                   ~stop_round:(a + b))
          | _ -> ignore (S.open_span t ~src:a kinds.(b mod 5) ~name ~round:i))
        ops;
      via_file (S.save ~extra:[ {|{"kind":"span_meta"}|} ] t) S.load
      = S.records t)

let prop_prof_roundtrip =
  let op = QCheck.Gen.(pair (int_range 0 3) nasty) in
  QCheck.Test.make ~name:"prof: load (save t) = rows, round samples" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 0 10) op))
    (fun ops ->
      let t = P.create () in
      List.iteri
        (fun i (tag, name) ->
          match tag with
          | 0 -> P.region t name ignore
          | 1 -> P.region t name (fun () -> P.region t (name ^ "'") ignore)
          | 2 -> P.phase t name
          | _ -> P.round_mark t ~round:i)
        ops;
      via_file (P.save ~extra:[ {|{"kind":"prof_meta"}|} ] t) P.load
      = (P.rows t, P.round_samples t))

let suite =
  [
    ( "jsonl",
      [
        Alcotest.test_case "bench timings: both shapes, null estimate" `Quick
          test_bench_shapes;
        Alcotest.test_case "string escapes decode" `Quick test_string_escapes;
        Alcotest.test_case "sweep line with a quoted name parses" `Quick
          test_sweep_json_parses;
        Alcotest.test_case "malformed metrics lines are located" `Quick
          test_metrics_errors;
        QCheck_alcotest.to_alcotest prop_quote_is_percent_s;
        QCheck_alcotest.to_alcotest prop_quote_roundtrip;
        QCheck_alcotest.to_alcotest prop_metrics_roundtrip;
        QCheck_alcotest.to_alcotest prop_spans_roundtrip;
        QCheck_alcotest.to_alcotest prop_prof_roundtrip;
      ] );
  ]
