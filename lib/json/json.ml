(** Minimal dependency-free JSON value, writer and parser — see json.mli. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string
  | Seq of t Seq.t

(* ------------------------------------------------------------------ *)
(* Writer                                                             *)
(* ------------------------------------------------------------------ *)

(* Plain bytes stand for themselves inside a JSON string; the others are
   '"', '\\' and the control bytes below 0x20.  Both directions scan
   runs of plain bytes through this table. *)
let plain =
  String.init 256 (fun i ->
      if i < 0x20 || i = Char.code '"' || i = Char.code '\\' then '\000'
      else '\001')

let is_plain ch = String.unsafe_get plain (Char.code ch) <> '\000'

(* The end of the run of plain bytes of [s] that starts at [i]. *)
let rec plain_end s n i =
  if i < n && is_plain (String.unsafe_get s i) then plain_end s n (i + 1)
  else i

let hex_digit = "0123456789abcdef"

(* [s] as the body of a JSON string literal: each run of plain bytes is
   blitted whole, so a clean string is added as is. *)
let add_escaped buf s =
  let n = String.length s in
  let rec go start =
    let stop = plain_end s n start in
    Buffer.add_substring buf s start (stop - start);
    if stop < n then begin
      (match String.unsafe_get s stop with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c ->
          Buffer.add_string buf "\\u00";
          Buffer.add_char buf hex_digit.[Char.code c lsr 4];
          Buffer.add_char buf hex_digit.[Char.code c land 0xf]);
      go (stop + 1)
    end
  in
  go 0

(* Shortest of %.15g/%.16g/%.17g that reads back as [f]; a trailing ".0"
   keeps integral values floats for the reader. *)
let float_repr f =
  let rec go p =
    let s = Printf.sprintf "%.*g" p f in
    if p >= 17 || float_of_string s = f then s else go (p + 1)
  in
  let s = go 15 in
  if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let fixed digits f =
  let scale = 10. ** float_of_int digits in
  Float (Float.round (f *. scale) /. scale)

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f ->
      Buffer.add_string buf (if Float.is_finite f then float_repr f else "null")
  | Raw s -> Buffer.add_string buf s
  | String s ->
      Buffer.add_char buf '"';
      add_escaped buf s;
      Buffer.add_char buf '"'
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          write buf item)
        items;
      Buffer.add_char buf ']'
  | Seq items ->
      Buffer.add_char buf '[';
      Seq.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          write buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          write buf (String k);
          Buffer.add_char buf ':';
          write buf v)
        fields;
      Buffer.add_char buf '}'

(* Decimal digits of [n], with its sign. *)
let int_len n =
  let rec go n k = if n > -10 && n < 10 then k else go (n / 10) (k + 1) in
  go n (if n < 0 then 2 else 1)

(* The bytes [write] emits for a value, counting each string byte once:
   floats count their longest form, [Seq] items (which exist only while
   written) nothing.  Escapes can make the output longer. *)
let rec size = function
  | Null -> 4
  | Bool b -> if b then 4 else 5
  | Int n -> int_len n
  | Float _ -> 24
  | Raw s -> String.length s
  | String s -> String.length s + 2
  | List items -> List.fold_left (fun acc item -> acc + 1 + size item) 2 items
  | Seq _ -> 2
  | Obj fields ->
      List.fold_left
        (fun acc (k, v) -> acc + String.length k + 4 + size v)
        2 fields

(* The buffer starts at [size] plus an eighth for escapes, which covers
   text like PHP source, so it rarely grows, and then once: rendering
   allocates the buffer and the result instead of a chain of doublings. *)
let to_string j =
  let n = size j in
  let buf = Buffer.create (n + (n lsr 3)) in
  write buf j;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parser                                                             *)
(* ------------------------------------------------------------------ *)

exception Bad of string

type cursor = {
  src : string;
  mutable pos : int;
  mutable scratch : Buffer.t option;  (* see [parse_string] *)
}

let fail c msg = raise (Bad (Printf.sprintf "%s at byte %d" msg c.pos))

let eof c = c.pos >= String.length c.src

(* The byte under the cursor, or '\000' at the end of input.  No dispatch
   below accepts '\000'; where the error text tells the two apart, the
   caller asks [eof]. *)
let peek c =
  if c.pos < String.length c.src then String.unsafe_get c.src c.pos
  else '\000'

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | ' ' | '\t' | '\n' | '\r' ->
      advance c;
      skip_ws c
  | _ -> ()

let expect c ch =
  if peek c = ch then advance c else fail c (Printf.sprintf "expected '%c'" ch)

let literal c word value =
  let n = String.length word in
  let rec matches i =
    i = n || (c.src.[c.pos + i] = word.[i] && matches (i + 1))
  in
  if c.pos + n <= String.length c.src && matches 0 then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c (Printf.sprintf "expected %s" word)

(* UTF-8 encode one code point into [buf]. *)
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

let hex_value c ch =
  match ch with
  | '0' .. '9' -> Char.code ch - Char.code '0'
  | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
  | _ -> fail c "bad \\u escape"

let hex4 c =
  if c.pos + 4 > String.length c.src then fail c "truncated \\u escape";
  let s = c.src and p = c.pos in
  let v =
    (hex_value c s.[p] lsl 12)
    lor (hex_value c s.[p + 1] lsl 8)
    lor (hex_value c s.[p + 2] lsl 4)
    lor hex_value c s.[p + 3]
  in
  c.pos <- p + 4;
  v

(* Decode the escape whose backslash the cursor has just passed. *)
let add_escape c buf =
  if eof c then fail c "unterminated escape";
  let ch = String.unsafe_get c.src c.pos in
  advance c;
  match ch with
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
        (* high surrogate: require the low half *)
        if
          c.pos + 2 <= String.length c.src
          && c.src.[c.pos] = '\\'
          && c.src.[c.pos + 1] = 'u'
        then begin
          c.pos <- c.pos + 2;
          let lo = hex4 c in
          if lo >= 0xDC00 && lo <= 0xDFFF then
            add_utf8 buf (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
          else fail c "unpaired surrogate"
        end
        else fail c "unpaired surrogate"
      end
      else if cp >= 0xDC00 && cp <= 0xDFFF then fail c "unpaired surrogate"
      else add_utf8 buf cp
  | _ -> fail c "unknown escape"

(* The plain run [run, stop) goes into [buf] in one copy; [stop] holds the
   byte that ended it. *)
let rec decode_runs c buf run stop =
  let s = c.src and n = String.length c.src in
  Buffer.add_substring buf s run (stop - run);
  c.pos <- stop;
  if stop = n then fail c "unterminated string"
  else
    match String.unsafe_get s stop with
    | '"' ->
        advance c;
        Buffer.contents buf
    | '\\' ->
        advance c;
        add_escape c buf;
        decode_runs c buf c.pos (plain_end s n c.pos)
    | _ -> fail c "raw control character"

(* A string without escapes is one [String.sub] of the source.  One with
   escapes decodes into the document's scratch buffer, then is copied out
   once.  Decoding never lengthens, so a scratch buffer sized from the
   rest of the input at the first such string never grows. *)
let parse_string c =
  expect c '"';
  let s = c.src and n = String.length c.src in
  let start = c.pos in
  let stop = plain_end s n start in
  if stop < n && String.unsafe_get s stop = '"' then begin
    c.pos <- stop + 1;
    String.sub s start (stop - start)
  end
  else
    let buf =
      match c.scratch with
      | Some buf ->
          Buffer.clear buf;
          buf
      | None ->
          let buf = Buffer.create (n - start) in
          c.scratch <- Some buf;
          buf
    in
    decode_runs c buf start stop

let rec skip_digits c =
  match peek c with
  | '0' .. '9' ->
      advance c;
      skip_digits c
  | _ -> ()

let parse_number c =
  let start = c.pos in
  if peek c = '-' then advance c;
  skip_digits c;
  let frac = peek c = '.' in
  if frac then begin
    advance c;
    skip_digits c
  end;
  let exp = match peek c with 'e' | 'E' -> true | _ -> false in
  if exp then begin
    advance c;
    (match peek c with '+' | '-' -> advance c | _ -> ());
    skip_digits c
  end;
  let text = String.sub c.src start (c.pos - start) in
  if text = "" || text = "-" then fail c "expected a number";
  if frac || exp then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail c "bad number"
  else
    match int_of_string_opt text with
    | Some n -> Int n
    | None -> (
        (* integer literal too wide for an int: keep it as a float *)
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail c "bad number")

let rec parse_value c depth =
  if depth <= 0 then fail c "nesting too deep";
  skip_ws c;
  match peek c with
  | '{' ->
      advance c;
      skip_ws c;
      if peek c = '}' then begin
        advance c;
        Obj []
      end
      else parse_members c depth []
  | '[' ->
      advance c;
      skip_ws c;
      if peek c = ']' then begin
        advance c;
        List []
      end
      else parse_elements c depth []
  | '"' -> String (parse_string c)
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | 'n' -> literal c "null" Null
  | '-' | '0' .. '9' -> parse_number c
  | _ when eof c -> fail c "unexpected end of input"
  | ch -> fail c (Printf.sprintf "unexpected character %C" ch)

and parse_members c depth fields =
  skip_ws c;
  let k = parse_string c in
  skip_ws c;
  expect c ':';
  let v = parse_value c (depth - 1) in
  let fields = (k, v) :: fields in
  skip_ws c;
  match peek c with
  | ',' ->
      advance c;
      parse_members c depth fields
  | '}' ->
      advance c;
      Obj (List.rev fields)
  | _ -> fail c "expected ',' or '}'"

and parse_elements c depth items =
  let items = parse_value c (depth - 1) :: items in
  skip_ws c;
  match peek c with
  | ',' ->
      advance c;
      parse_elements c depth items
  | ']' ->
      advance c;
      List (List.rev items)
  | _ -> fail c "expected ',' or ']'"

let parse ?(max_depth = 512) src =
  let c = { src; pos = 0; scratch = None } in
  match parse_value c max_depth with
  | v ->
      skip_ws c;
      if c.pos <> String.length src then
        Error (Printf.sprintf "trailing garbage at byte %d" c.pos)
      else Ok v
  | exception Bad msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors                                                          *)
(* ------------------------------------------------------------------ *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
let to_int_opt = function Int n -> Some n | _ -> None
let to_bool_opt = function Bool b -> Some b | _ -> None
let to_list_opt = function List l -> Some l | _ -> None
