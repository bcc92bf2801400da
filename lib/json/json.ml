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

let escape s =
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
      Buffer.add_string buf (escape s);
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

let to_string j =
  let buf = Buffer.create 4096 in
  write buf j;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parser                                                             *)
(* ------------------------------------------------------------------ *)

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

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
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
                  (* high surrogate: require the low half *)
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

let parse_number c =
  let start = c.pos in
  let is_float = ref false in
  (match peek c with Some '-' -> advance c | _ -> ());
  let rec digits () =
    match peek c with
    | Some '0' .. '9' ->
        advance c;
        digits ()
    | _ -> ()
  in
  digits ();
  (match peek c with
  | Some '.' ->
      is_float := true;
      advance c;
      digits ()
  | _ -> ());
  (match peek c with
  | Some ('e' | 'E') ->
      is_float := true;
      advance c;
      (match peek c with Some ('+' | '-') -> advance c | _ -> ());
      digits ()
  | _ -> ());
  let text = String.sub c.src start (c.pos - start) in
  if text = "" || text = "-" then fail c "expected a number";
  if !is_float then
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
  | None -> fail c "unexpected end of input"
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c (depth - 1) in
          fields := (k, v) :: !fields;
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              members ()
          | Some '}' -> advance c
          | _ -> fail c "expected ',' or '}'"
        in
        members ();
        Obj (List.rev !fields)
      end
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        List []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value c (depth - 1) in
          items := v :: !items;
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              elements ()
          | Some ']' -> advance c
          | _ -> fail c "expected ',' or ']'"
        in
        elements ();
        List (List.rev !items)
      end
  | Some '"' -> String (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail c (Printf.sprintf "unexpected character %C" ch)

let parse ?(max_depth = 512) src =
  let c = { src; pos = 0 } in
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
