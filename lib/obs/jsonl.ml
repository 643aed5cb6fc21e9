(* The one JSON codec.  See jsonl.mli for the line, escaping and error
   contracts. *)

exception Parse_error of { file : string; line : int; msg : string }

let () =
  Printexc.register_printer (function
    | Parse_error { file; line; msg } ->
        Some (Printf.sprintf "%s: line %d: %s" file line msg)
    | _ -> None)

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b {|\"|}
      | '\\' -> Buffer.add_string b {|\\|}
      | '\n' -> Buffer.add_string b {|\n|}
      | '\t' -> Buffer.add_string b {|\t|}
      | '\r' -> Buffer.add_string b {|\r|}
      | '\b' -> Buffer.add_string b {|\b|}
      | '\012' -> Buffer.add_string b {|\f|}
      | c when c < ' ' -> Printf.bprintf b {|\u%04x|} (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

type t =
  | Null
  | Bool of bool
  | Number of string
  | String of string
  | Array of t list
  | Object of obj

(* An object remembers its source text and the offset of the line it
   starts on, so a later field error can quote that line. *)
and obj = {
  file : string;
  line : int;
  src : string;
  bol : int;
  fields : (string * t) list;
}

let line_text s bol =
  let stop =
    match String.index_from_opt s bol '\n' with
    | Some i -> i
    | None -> String.length s
  in
  let stop = if stop > bol && s.[stop - 1] = '\r' then stop - 1 else stop in
  String.sub s bol (stop - bol)

let fail o msg =
  raise
    (Parse_error
       {
         file = o.file;
         line = o.line;
         msg = msg ^ ": " ^ line_text o.src o.bol;
       })

(* ------------------------------------------------------------------ *)
(* Tokenizer *)

type lexer = {
  lfile : string;
  s : string;
  mutable pos : int;
  mutable lnum : int;  (* line of [pos], 1-based *)
  mutable lbol : int;  (* offset where that line starts *)
}

let error lx msg =
  raise
    (Parse_error
       {
         file = lx.lfile;
         line = lx.lnum;
         msg =
           Printf.sprintf "%s at column %d: %s" msg (lx.pos - lx.lbol + 1)
             (line_text lx.s lx.lbol);
       })

let rec skip_ws lx =
  if lx.pos < String.length lx.s then
    match lx.s.[lx.pos] with
    | ' ' | '\t' | '\r' ->
        lx.pos <- lx.pos + 1;
        skip_ws lx
    | '\n' ->
        lx.pos <- lx.pos + 1;
        lx.lnum <- lx.lnum + 1;
        lx.lbol <- lx.pos;
        skip_ws lx
    | _ -> ()

let peek lx = if lx.pos < String.length lx.s then Some lx.s.[lx.pos] else None

let expect lx c =
  skip_ws lx;
  if peek lx = Some c then lx.pos <- lx.pos + 1
  else error lx (Printf.sprintf "expected %C" c)

let hex4 lx =
  let h =
    if lx.pos + 4 <= String.length lx.s then String.sub lx.s lx.pos 4 else ""
  in
  let is_hex = function
    | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
    | _ -> false
  in
  if h = "" || not (String.for_all is_hex h) then error lx "bad \\u escape";
  lx.pos <- lx.pos + 4;
  int_of_string ("0x" ^ h)

let escape lx b =
  (* at the character after the backslash *)
  let simple c =
    Buffer.add_char b c;
    lx.pos <- lx.pos + 1
  in
  match peek lx with
  | Some (('"' | '\\' | '/') as c) -> simple c
  | Some 'b' -> simple '\b'
  | Some 'f' -> simple '\012'
  | Some 'n' -> simple '\n'
  | Some 'r' -> simple '\r'
  | Some 't' -> simple '\t'
  | Some 'u' ->
      lx.pos <- lx.pos + 1;
      let hi = hex4 lx in
      let u =
        (* a high surrogate must be followed by an escaped low one *)
        if hi land 0xFC00 <> 0xD800 then hi
        else if
          lx.pos + 1 < String.length lx.s
          && lx.s.[lx.pos] = '\\'
          && lx.s.[lx.pos + 1] = 'u'
        then begin
          lx.pos <- lx.pos + 2;
          let lo = hex4 lx in
          if lo land 0xFC00 <> 0xDC00 then error lx "lone surrogate";
          0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
        end
        else error lx "lone surrogate"
      in
      if not (Uchar.is_valid u) then error lx "lone surrogate";
      Buffer.add_utf_8_uchar b (Uchar.of_int u)
  | _ -> error lx "bad escape"

let string_lit lx =
  (* at the opening quote; the common unescaped case is one [sub] *)
  let s = lx.s and n = String.length lx.s in
  let start = lx.pos + 1 in
  let rec plain i =
    if i < n && s.[i] <> '"' && s.[i] <> '\\' && s.[i] >= ' ' then
      plain (i + 1)
    else i
  in
  let i = plain start in
  if i < n && s.[i] = '"' then begin
    lx.pos <- i + 1;
    String.sub s start (i - start)
  end
  else begin
    let b = Buffer.create (i - start + 16) in
    Buffer.add_substring b s start (i - start);
    lx.pos <- i;
    let rec go () =
      match peek lx with
      | None -> error lx "unterminated string"
      | Some '"' -> lx.pos <- lx.pos + 1
      | Some '\\' ->
          lx.pos <- lx.pos + 1;
          escape lx b;
          go ()
      | Some c when c < ' ' -> error lx "control character in string"
      | Some c ->
          Buffer.add_char b c;
          lx.pos <- lx.pos + 1;
          go ()
    in
    go ();
    Buffer.contents b
  end

let number lx =
  let s = lx.s and n = String.length lx.s in
  let start = lx.pos in
  let digits () =
    let from = lx.pos in
    while lx.pos < n && s.[lx.pos] >= '0' && s.[lx.pos] <= '9' do
      lx.pos <- lx.pos + 1
    done;
    if lx.pos = from then error lx "malformed number"
  in
  let skip c = if peek lx = Some c then lx.pos <- lx.pos + 1 in
  skip '-';
  if peek lx = Some '0' then lx.pos <- lx.pos + 1 else digits ();
  if peek lx = Some '.' then begin
    lx.pos <- lx.pos + 1;
    digits ()
  end;
  (match peek lx with
  | Some ('e' | 'E') ->
      lx.pos <- lx.pos + 1;
      if peek lx = Some '+' then skip '+' else skip '-';
      digits ()
  | _ -> ());
  String.sub s start (lx.pos - start)

(* Bounds recursion on hostile input; our files nest two deep. *)
let max_depth = 256

let rec value lx depth =
  if depth > max_depth then error lx "nesting too deep";
  skip_ws lx;
  let literal word v =
    let l = String.length word in
    if lx.pos + l <= String.length lx.s && String.sub lx.s lx.pos l = word
    then begin
      lx.pos <- lx.pos + l;
      v
    end
    else error lx "unexpected character"
  in
  match peek lx with
  | None -> error lx "unexpected end of input"
  | Some '{' -> Object (object_body lx depth)
  | Some '[' ->
      lx.pos <- lx.pos + 1;
      skip_ws lx;
      if peek lx = Some ']' then begin
        lx.pos <- lx.pos + 1;
        Array []
      end
      else
        let rec items acc =
          let acc = value lx (depth + 1) :: acc in
          skip_ws lx;
          match peek lx with
          | Some ',' ->
              lx.pos <- lx.pos + 1;
              items acc
          | Some ']' ->
              lx.pos <- lx.pos + 1;
              List.rev acc
          | _ -> error lx "expected ',' or ']'"
        in
        Array (items [])
  | Some '"' -> String (string_lit lx)
  | Some ('-' | '0' .. '9') -> Number (number lx)
  | Some 't' -> literal "true" (Bool true)
  | Some 'f' -> literal "false" (Bool false)
  | Some 'n' -> literal "null" Null
  | Some _ -> error lx "unexpected character"

and object_body lx depth =
  (* at the opening brace *)
  let line = lx.lnum and bol = lx.lbol in
  lx.pos <- lx.pos + 1;
  skip_ws lx;
  let fields =
    if peek lx = Some '}' then begin
      lx.pos <- lx.pos + 1;
      []
    end
    else
      let rec members acc =
        skip_ws lx;
        if peek lx <> Some '"' then error lx "expected a field name";
        let key = string_lit lx in
        expect lx ':';
        let acc = (key, value lx (depth + 1)) :: acc in
        skip_ws lx;
        match peek lx with
        | Some ',' ->
            lx.pos <- lx.pos + 1;
            members acc
        | Some '}' ->
            lx.pos <- lx.pos + 1;
            List.rev acc
        | _ -> error lx "expected ',' or '}'"
      in
      members []
  in
  { file = lx.lfile; line; src = lx.s; bol; fields }

let finish lx =
  skip_ws lx;
  if lx.pos < String.length lx.s then error lx "trailing characters"

(* ------------------------------------------------------------------ *)
(* Fields *)

type 'a conv = { what : string; get : t -> 'a option }

let int =
  let get = function Number l -> int_of_string_opt l | _ -> None in
  { what = "an integer"; get }

let float =
  let get = function Number l -> float_of_string_opt l | _ -> None in
  { what = "a number"; get }

let string =
  { what = "a string"; get = (function String s -> Some s | _ -> None) }

let obj =
  { what = "an object"; get = (function Object o -> Some o | _ -> None) }

let all c items =
  List.fold_right
    (fun x acc ->
      match (acc, c.get x) with Some l, Some v -> Some (v :: l) | _ -> None)
    items (Some [])

let list c =
  { what = "an array"; get = (function Array items -> all c items | _ -> None) }

let assoc c =
  {
    what = "an object of " ^ c.what ^ " values";
    get =
      (function
      | Object o ->
          Option.map
            (List.combine (List.map fst o.fields))
            (all c (List.map snd o.fields))
      | _ -> None);
  }

let opt o key c =
  match List.assoc_opt key o.fields with
  | None | Some Null -> None
  | Some v -> (
      match c.get v with
      | Some x -> Some x
      | None -> fail o (Printf.sprintf "field %S: expected %s" key c.what))

let req o key c =
  match opt o key c with
  | Some x -> x
  | None -> fail o (Printf.sprintf "missing field %S" key)

(* ------------------------------------------------------------------ *)
(* Files *)

let scan file stop =
  In_channel.with_open_bin file (fun ic ->
      let rec go lnum =
        match In_channel.input_line ic with
        | None -> None
        | Some s -> (
            let lx = { lfile = file; s; pos = 0; lnum; lbol = 0 } in
            skip_ws lx;
            if lx.pos = String.length s then go (lnum + 1)
            else begin
              if peek lx <> Some '{' then error lx "expected an object";
              let o = object_body lx 0 in
              finish lx;
              let kind = req o "kind" string in
              if stop kind o then Some (kind, o) else go (lnum + 1)
            end)
      in
      go 1)

let iter_file file f =
  ignore
    (scan file (fun kind o ->
         f kind o;
         false))

let find_line file p = scan file (fun kind _ -> p kind)

let parse_file file =
  let s = In_channel.with_open_bin file In_channel.input_all in
  let lx = { lfile = file; s; pos = 0; lnum = 1; lbol = 0 } in
  let v = value lx 0 in
  finish lx;
  v

let save file emit =
  Out_channel.with_open_text file (fun oc ->
      emit (fun line ->
          output_string oc line;
          output_char oc '\n'))
