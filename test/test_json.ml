(** The JSON codec's string half against its per-character definition.
    [Json] copies runs of plain bytes in one go; the reference below is
    the byte-at-a-time encoder and decoder it replaced, kept verbatim so
    that the differential properties pin the output bytes, the decoded
    strings, and every error text with its byte offset. *)

open QCheck2

(* ------------------------------------------------------------------ *)
(* Reference: one byte at a time                                      *)
(* ------------------------------------------------------------------ *)

let ref_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

exception Bad of string

type cursor = { src : string; mutable pos : int }

let fail c msg = raise (Bad (Printf.sprintf "%s at byte %d" msg c.pos))
let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None
let advance c = c.pos <- c.pos + 1

let skip_ws c =
  let rec go () =
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance c;
        go ()
    | _ -> ()
  in
  go ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c (Printf.sprintf "expected '%c'" ch)

let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let hex4 c =
  let digit ch =
    match ch with
    | '0' .. '9' -> Char.code ch - Char.code '0'
    | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
    | _ -> fail c "bad \\u escape"
  in
  if c.pos + 4 > String.length c.src then fail c "truncated \\u escape";
  let v =
    (digit c.src.[c.pos] lsl 12)
    lor (digit c.src.[c.pos + 1] lsl 8)
    lor (digit c.src.[c.pos + 2] lsl 4)
    lor digit c.src.[c.pos + 3]
  in
  c.pos <- c.pos + 4;
  v

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' ->
        advance c;
        Buffer.contents buf
    | Some '\\' -> (
        advance c;
        match peek c with
        | None -> fail c "unterminated escape"
        | Some ch ->
            advance c;
            (match ch with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                let cp = hex4 c in
                if cp >= 0xD800 && cp <= 0xDBFF then begin
                  if
                    c.pos + 2 <= String.length c.src
                    && c.src.[c.pos] = '\\'
                    && c.src.[c.pos + 1] = 'u'
                  then begin
                    c.pos <- c.pos + 2;
                    let lo = hex4 c in
                    if lo >= 0xDC00 && lo <= 0xDFFF then
                      add_utf8 buf
                        (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
                    else fail c "unpaired surrogate"
                  end
                  else fail c "unpaired surrogate"
                end
                else if cp >= 0xDC00 && cp <= 0xDFFF then
                  fail c "unpaired surrogate"
                else add_utf8 buf cp
            | _ -> fail c "unknown escape");
            go ())
    | Some ch when Char.code ch < 0x20 -> fail c "raw control character"
    | Some ch ->
        advance c;
        Buffer.add_char buf ch;
        go ()
  in
  go ()

(* A document that starts with a string literal, as [Json.parse] reads
   it: the literal, then only whitespace. *)
let ref_parse src =
  let c = { src; pos = 0 } in
  match parse_string c with
  | s ->
      skip_ws c;
      if c.pos <> String.length src then
        Error (Printf.sprintf "trailing garbage at byte %d" c.pos)
      else Ok (Json.String s)
  | exception Bad msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Generators                                                         *)
(* ------------------------------------------------------------------ *)

(* Bytes that need no escaping: printable ASCII but '"' and '\\', DEL,
   and the high half (so multi-byte UTF-8 sequences and stray
   continuation bytes alike). *)
let plain_char =
  Gen.map
    (fun c -> if c = '"' || c = '\\' then 'x' else c)
    (Gen.oneof [ Gen.char_range ' ' '~'; Gen.char_range '\x7f' '\xff' ])

(* Runs from empty to past 4 KB, so some strings are too large for the
   minor heap. *)
let plain_run =
  Gen.string_size ~gen:plain_char
    (Gen.frequency
       [ (8, Gen.int_range 0 24); (1, Gen.int_range 2000 5000) ])

let utf8 =
  Gen.oneofl
    [ "\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9d\x84\x9e"; "\xe6\x97\xa5" ]

(* Raw strings, as a [String] value holds them. *)
let raw_string =
  Gen.map (String.concat "")
    (Gen.list_size (Gen.int_range 0 8)
       (Gen.frequency
          [
            (6, plain_run);
            (2, utf8);
            (2, Gen.map (String.make 1) (Gen.char_range '\x00' '\x1f'));
            (1, Gen.oneofl [ "\""; "\\"; "\x7f"; "\r\n"; "\t" ]);
          ]))

let hex4_of fmt = Gen.map (Printf.sprintf fmt)

(* Pieces of a literal's body as it appears on the wire. *)
let good_piece =
  Gen.frequency
    [
      (6, plain_run);
      (2, utf8);
      ( 3,
        Gen.oneofl
          [ "\\\""; "\\\\"; "\\/"; "\\b"; "\\f"; "\\n"; "\\r"; "\\t" ] );
      (2, hex4_of "\\u%04x" (Gen.int_range 0 0xd7ff));
      (1, hex4_of "\\u%04X" (Gen.int_range 0xe000 0xffff));
      ( 2,
        Gen.map2
          (fun hi lo -> Printf.sprintf "\\u%04X\\u%04x" hi lo)
          (Gen.int_range 0xd800 0xdbff)
          (Gen.int_range 0xdc00 0xdfff) );
    ]

let bad_piece =
  Gen.oneof
    [
      hex4_of "\\u%04x" (Gen.int_range 0xd800 0xdbff);
      hex4_of "\\ud800\\u%04x" (Gen.int_range 0 0xdbff);
      hex4_of "\\u%04x" (Gen.int_range 0xdc00 0xdfff);
      Gen.oneofl [ "\\u12g4"; "\\u12"; "\\ud83d\\u"; "\\x"; "\\"; "\\u"; "\"" ];
      Gen.map (String.make 1) (Gen.char_range '\x00' '\x1f');
    ]

let literal =
  Gen.map2
    (fun pieces close -> "\"" ^ String.concat "" pieces ^ close)
    (Gen.list_size (Gen.int_range 0 10)
       (Gen.frequency [ (12, good_piece); (1, bad_piece) ]))
    (Gen.frequency
       [ (10, Gen.pure "\""); (1, Gen.pure ""); (1, Gen.pure "\" \n");
         (1, Gen.pure "\"x") ])

let finite_float =
  Gen.map (fun f -> if Float.is_finite f then f else 0.5) Gen.float

let value : Json.t Gen.t =
  Gen.sized_size (Gen.int_bound 24)
    (Gen.fix (fun self n ->
         let leaf =
           Gen.oneof
             [
               Gen.pure Json.Null;
               Gen.map (fun b -> Json.Bool b) Gen.bool;
               Gen.map (fun i -> Json.Int i) Gen.int;
               Gen.map (fun f -> Json.Float f) finite_float;
               Gen.map (fun s -> Json.String s) raw_string;
             ]
         in
         if n <= 1 then leaf
         else
           let sub = self (n / 3) in
           Gen.frequency
             [
               (2, leaf);
               ( 1,
                 Gen.map
                   (fun l -> Json.List l)
                   (Gen.list_size (Gen.int_bound 4) sub) );
               ( 1,
                 Gen.map
                   (fun l -> Json.Obj l)
                   (Gen.list_size (Gen.int_bound 4) (Gen.pair raw_string sub)) );
             ]))

(* ------------------------------------------------------------------ *)
(* Properties                                                         *)
(* ------------------------------------------------------------------ *)

let show_result = function
  | Ok v -> "Ok " ^ Json.to_string v
  | Error e -> "Error " ^ e

let round_trip =
  Test.make ~name:"parse (to_string v) = Ok v" ~count:300
    ~print:Json.to_string value (fun v ->
      match Json.parse (Json.to_string v) with
      | Ok v' when v' = v -> true
      | r -> Test.fail_reportf "read back %s" (show_result r))

let encode_differential =
  Test.make ~name:"to_string (String s) is the per-character escape"
    ~count:500 ~print:String.escaped raw_string (fun s ->
      String.equal
        (Json.to_string (Json.String s))
        ("\"" ^ ref_escape s ^ "\""))

let decode_differential =
  Test.make ~name:"parse of a string literal is the per-character decode"
    ~count:2000 ~print:String.escaped literal (fun src ->
      let got = Json.parse src and want = ref_parse src in
      got = want
      || Test.fail_reportf "got %s, reference %s" (show_result got)
           (show_result want))

(* ------------------------------------------------------------------ *)
(* Fixed cases: the error texts the daemon's bad_json replies carry   *)
(* ------------------------------------------------------------------ *)

let fixed =
  let case name src want =
    Alcotest.test_case name `Quick (fun () ->
        Alcotest.(check string) src want (show_result (Json.parse src)))
  in
  [
    case "clean string" {|"plain"|} {|Ok "plain"|};
    case "escapes" {|"a\"b\\c\/\né𝄞"|}
      "Ok \"a\\\"b\\\\c/\\n\xc3\xa9\xf0\x9d\x84\x9e\"";
    case "control bytes re-encode as \\u00XX" "\"\\u0001\\u001f\""
      {|Ok "\u0001\u001f"|};
    case "unterminated string" {|"abc|} "Error unterminated string at byte 4";
    case "unterminated escape" {|"abc\|} "Error unterminated escape at byte 5";
    case "raw control byte" "\"ab\ncd\"" "Error raw control character at byte 3";
    case "unknown escape" {|"\x"|} "Error unknown escape at byte 3";
    case "bad hex digit" {|"\u12g4"|} "Error bad \\u escape at byte 3";
    case "truncated \\u" {|"\u12"|} "Error truncated \\u escape at byte 3";
    case "lone high surrogate" {|"\ud800"|} "Error unpaired surrogate at byte 7";
    case "high surrogate, then no low" {|"\ud800\u0041"|}
      "Error unpaired surrogate at byte 13";
    case "lone low surrogate" {|"\udc00"|} "Error unpaired surrogate at byte 7";
    case "object key without quote" "{a:1}" "Error expected '\"' at byte 1";
    case "end of input" "  " "Error unexpected end of input at byte 2";
    case "NUL outside a string" "\000"
      "Error unexpected character '\\000' at byte 0";
    case "trailing garbage" {|"a" x|} "Error trailing garbage at byte 4";
  ]

let () =
  Alcotest.run "json"
    [
      ("fixed", fixed);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ round_trip; encode_differential; decode_differential ] );
    ]
