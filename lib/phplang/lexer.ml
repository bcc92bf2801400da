(** PHP tokenizer — the [token_get_all] equivalent that phpSAFE's model
    construction stage builds on (paper §III.B).

    The lexer recognises the PHP 5 subset used by WordPress-style plugins:
    open/close tags with inline HTML, variables, identifiers/keywords,
    integer/float literals, single- and double-quoted strings (the latter kept
    raw; interpolation is expanded by the parser), comments, casts and the
    full operator set in {!Token.kind}.

    The hot path allocates only what it returns: the token, and a lexeme
    that is a shared constant, an interned string or one [String.sub] of
    the source.  Every lexeme is a slice of the source except an open
    tag's (always ["<?php"]) and a heredoc's (its body).  Probes read
    source bytes in place, and dispatch is one [match] on the first
    byte. *)

exception Error of string * int  (** message, line *)

type state = {
  src : string;
  len : int;
  mutable pos : int;
  mutable line : int;
  mutable in_php : bool;  (* inside <?php ... ?> *)
  mutable interned : string array;
      (* open-addressed set of retained lexemes, probed with source slices
         so a hit allocates nothing; "" marks an empty slot.  Per state
         rather than global so concurrent domains never share it. *)
  mutable n_interned : int;
  mutable intern_hits : int;
  mutable intern_bytes_saved : int;
}

let make_state src =
  { src; len = String.length src; pos = 0; line = 1; in_php = false;
    interned = Array.make 256 ""; n_interned = 0;
    intern_hits = 0; intern_bytes_saved = 0 }

let fail st msg = raise (Error (msg, st.line))

(* [st.src.[st.pos + i] = c], false past the end. *)
let at st i c = st.pos + i < st.len && String.unsafe_get st.src (st.pos + i) = c

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let is_hex_digit c =
  is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let is_bin_digit c = c = '0' || c = '1'

(* First index at or after [i] whose byte fails [pred] (or [String.length
   s]); [pred] must reject '\n', since no line is counted. *)
let rec skip_while pred s i =
  if i < String.length s && pred (String.unsafe_get s i) then
    skip_while pred s (i + 1)
  else i

let newlines_in s start stop =
  let n = ref 0 in
  for i = start to stop - 1 do
    if String.unsafe_get s i = '\n' then incr n
  done;
  !n

(* ------------------------------------------------------------------ *)
(* Lexeme interning                                                    *)
(* ------------------------------------------------------------------ *)

(* The first occurrence of a lexeme is kept; every later equal lexeme
   returns the retained string and allocates nothing.  The hits are
   counted in the state and published once per lexing run as
   [lexer.intern.hits] and [lexer.intern.bytes_saved]: on a typical plugin
   file most ident/keyword tokens are intern hits. *)

let hash_slice s start stop =
  let h = ref 0 in
  for i = start to stop - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x01000193
  done;
  !h lxor (!h lsr 17)

let rec same_bytes e s start i =
  i = String.length e
  || String.unsafe_get e i = String.unsafe_get s (start + i)
     && same_bytes e s start (i + 1)

(* The slot holding src.[start, start + n), or the empty slot where it
   belongs. *)
let rec slot_of slots s start n i =
  let e = Array.unsafe_get slots i in
  if String.length e = 0 || (String.length e = n && same_bytes e s start 0)
  then i
  else slot_of slots s start n ((i + 1) land (Array.length slots - 1))

let grow st =
  let old = st.interned in
  let slots = Array.make (2 * Array.length old) "" in
  let mask = Array.length slots - 1 in
  Array.iter
    (fun e ->
      if String.length e > 0 then
        let n = String.length e in
        slots.(slot_of slots e 0 n (hash_slice e 0 n land mask)) <- e)
    old;
  st.interned <- slots

let intern st start stop =
  let n = stop - start and slots = st.interned in
  let mask = Array.length slots - 1 in
  let h = hash_slice st.src start stop land mask in
  let i = slot_of slots st.src start n h in
  let e = Array.unsafe_get slots i in
  if String.length e > 0 then begin
    st.intern_hits <- st.intern_hits + 1;
    st.intern_bytes_saved <- st.intern_bytes_saved + n;
    e
  end
  else begin
    let e = String.sub st.src start n in
    slots.(i) <- e;
    st.n_interned <- st.n_interned + 1;
    if 2 * st.n_interned > Array.length slots then grow st;
    e
  end

(* Publishes [st]'s intern counters; each lexing run does so once. *)
let publish_counters st =
  if st.intern_hits > 0 then begin
    Obs.add "lexer.intern.hits" st.intern_hits;
    Obs.add "lexer.intern.bytes_saved" st.intern_bytes_saved
  end

(* Runs a lexing loop over [st] and publishes its intern counters, also
   when the loop raises. *)
let with_counters st loop =
  Fun.protect loop ~finally:(fun () -> publish_counters st)

(* ------------------------------------------------------------------ *)
(* Token lexers                                                        *)
(* ------------------------------------------------------------------ *)

(* Shared one-character lexemes for punctuation — immutable, so safe to
   share across domains. *)
let single_char = Array.init 256 (fun i -> String.make 1 (Char.chr i))

let punct_chars = ";,(){}[]=+-*/%.<>!?:&@|^~$"
let is_punct_char =
  Array.init 256 (fun i -> String.contains punct_chars (Char.chr i))

(* The token [src.[start, st.pos)] of [kind]. *)
let slice_token st kind start line =
  Token.make kind (String.sub st.src start (st.pos - start)) line

(* Inline HTML up to the next open tag (or EOF). *)
let lex_inline_html st =
  let start = st.pos and line = st.line in
  let i = ref start in
  while
    !i < st.len
    && not (String.unsafe_get st.src !i = '<' && !i + 1 < st.len
            && String.unsafe_get st.src (!i + 1) = '?')
  do
    incr i
  done;
  st.line <- st.line + newlines_in st.src start !i;
  st.pos <- !i;
  slice_token st Token.T_INLINE_HTML start line

(* A [{$...}] region of an interpolated string is PHP code: it ends at
   the brace matching the one at [i], and its own quoted strings, which
   may hold the outer quote (["x{$_GET["h"]}"]), are skipped whole, a
   backslash escaping the byte after it ([~quotes:false] treats quotes as
   plain bytes).  [region_end s i limit] is the index just past that
   brace, or [None] when the region does not close before [limit]. *)
let region_end ?(quotes = true) s i limit =
  let rec code depth j =
    if j >= limit then None
    else
      match String.unsafe_get s j with
      | '{' -> code (depth + 1) (j + 1)
      | '}' -> if depth = 1 then Some (j + 1) else code (depth - 1) (j + 1)
      | ('\'' | '"') as q when quotes -> quoted depth q (j + 1)
      | _ -> code depth (j + 1)
  and quoted depth q j =
    if j >= limit then None
    else
      match String.unsafe_get s j with
      | '\\' -> quoted depth q (j + 2)
      | c when c = q -> code depth (j + 1)
      | _ -> quoted depth q (j + 1)
  in
  code 0 i

(* Single- and double-quoted strings: the lexeme is the source slice,
   quotes and escapes included.  A backslash consumes the byte after it,
   so a backslash-newline still advances the line counter.  A
   double-quoted string skips each [{$...}] region whole; a region that
   never closes is lexed as plain text, so the string ends at its first
   unescaped quote and the parser reports the unclosed region. *)
let lex_quoted st quote kind unterminated =
  let line = st.line and start = st.pos in
  let closed = ref false in
  st.pos <- st.pos + 1;
  while not !closed do
    if st.pos >= st.len then fail st unterminated;
    let c = String.unsafe_get st.src st.pos in
    if c = '\n' then st.line <- st.line + 1;
    let region =
      if c = '{' && quote = '"' && at st 1 '$' then
        region_end st.src st.pos st.len
      else None
    in
    match region with
    | Some stop ->
        st.line <- st.line + newlines_in st.src st.pos stop;
        st.pos <- stop
    | None ->
        if c = '\\' && st.pos + 1 < st.len then begin
          if String.unsafe_get st.src (st.pos + 1) = '\n' then
            st.line <- st.line + 1;
          st.pos <- st.pos + 2
        end
        else begin
          st.pos <- st.pos + 1;
          closed := c = quote
        end
  done;
  slice_token st kind start line

(* Integer and float literals: decimal and leading-zero octal integers,
   0x../0b.. hex and binary, d.d floats and exponent notation (1e3, 1.5E-2,
   2e+10).  A trailing 'e' with no digits is not an exponent — "5en" stays
   T_LNUMBER "5" followed by an identifier, like PHP.  The signed-exponent
   probe reads up to 3 bytes past the token. *)
let digit_at st i pred =
  st.pos + i < st.len && pred (String.unsafe_get st.src (st.pos + i))

let lex_number st =
  let line = st.line and start = st.pos and s = st.src in
  let kind =
    if
      s.[start] = '0' && (at st 1 'x' || at st 1 'X')
      && digit_at st 2 is_hex_digit
    then begin
      st.pos <- skip_while is_hex_digit s (start + 2);
      Token.T_LNUMBER
    end
    else if
      s.[start] = '0' && (at st 1 'b' || at st 1 'B')
      && digit_at st 2 is_bin_digit
    then begin
      st.pos <- skip_while is_bin_digit s (start + 2);
      Token.T_LNUMBER
    end
    else begin
      st.pos <- skip_while is_digit s start;
      let frac = at st 0 '.' && digit_at st 1 is_digit in
      if frac then st.pos <- skip_while is_digit s (st.pos + 1);
      let d = if at st 1 '+' || at st 1 '-' then 2 else 1 in
      let expo = (at st 0 'e' || at st 0 'E') && digit_at st d is_digit in
      if expo then st.pos <- skip_while is_digit s (st.pos + d);
      if frac || expo then Token.T_DNUMBER else Token.T_LNUMBER
    end
  in
  slice_token st kind start line

(* [//] and [#] comments run to the end of the line, newline excluded. *)
let lex_line_comment st =
  let line = st.line and start = st.pos in
  st.pos <- skip_while (fun c -> c <> '\n') st.src start;
  slice_token st Token.T_COMMENT start line

let rec comment_end s i =
  if i + 1 >= String.length s then -1
  else if String.unsafe_get s i = '*' && String.unsafe_get s (i + 1) = '/' then
    i + 2
  else comment_end s (i + 1)

let lex_block_comment st =
  let line = st.line and start = st.pos in
  let doc = at st 2 '*' && not (at st 3 '/') in
  let stop = comment_end st.src (start + 2) in
  if stop < 0 then fail st "unterminated block comment";
  st.line <- st.line + newlines_in st.src start stop;
  st.pos <- stop;
  let kind = if doc then Token.T_DOC_COMMENT else Token.T_COMMENT in
  slice_token st kind start line

(* The kind of the cast whose type name is src.[i, i + n), in any case. *)
let cast_kind s i n =
  match String.lowercase_ascii (String.sub s i n) with
  | "int" | "integer" -> Some Token.T_INT_CAST
  | "float" | "double" | "real" -> Some Token.T_FLOAT_CAST
  | "string" -> Some Token.T_STRING_CAST
  | "array" -> Some Token.T_ARRAY_CAST
  | "bool" | "boolean" -> Some Token.T_BOOL_CAST
  | _ -> None

let is_blank c = c = ' ' || c = '\t'

(* '(' is a cast when it reads '(' blank* typename blank* ')', otherwise
   punctuation. *)
let lex_paren st =
  let line = st.line and start = st.pos and s = st.src in
  let i = skip_while is_blank s (start + 1) in
  let j = skip_while is_ident_char s i in
  let k = skip_while is_blank s j in
  let cast =
    if j > i && k < st.len && s.[k] = ')' then cast_kind s i (j - i)
    else None
  in
  match cast with
  | Some kind ->
      st.pos <- k + 1;
      slice_token st kind start line
  | None ->
      st.pos <- start + 1;
      Token.make Token.Punct "(" line

let two_char_ops : (string * Token.kind) list =
  [ ("=>", Token.T_DOUBLE_ARROW); ("->", Token.T_OBJECT_OPERATOR);
    ("::", Token.T_DOUBLE_COLON); ("&&", Token.T_BOOLEAN_AND);
    ("||", Token.T_BOOLEAN_OR); ("==", Token.T_IS_EQUAL);
    ("!=", Token.T_IS_NOT_EQUAL); ("<=", Token.T_IS_SMALLER_OR_EQUAL);
    (">=", Token.T_IS_GREATER_OR_EQUAL); ("+=", Token.T_PLUS_EQUAL);
    ("-=", Token.T_MINUS_EQUAL); ("*=", Token.T_MUL_EQUAL);
    ("/=", Token.T_DIV_EQUAL); (".=", Token.T_CONCAT_EQUAL);
    ("%=", Token.T_MOD_EQUAL); ("++", Token.T_INC); ("--", Token.T_DEC);
    ("??", Token.T_COALESCE) ]

(* [two_char_ops] indexed by first byte: (second byte, kind, lexeme). *)
let two_char_index : (char * Token.kind * string) list array =
  let index = Array.make 256 [] in
  List.iter
    (fun (op, k) ->
      let c = Char.code op.[0] in
      index.(c) <- (op.[1], k, op) :: index.(c))
    two_char_ops;
  index

(* The suffix of [ops] that starts with the operator whose second byte is
   [c]; [] when none is. *)
let rec with_second c = function
  | (c', _, _) :: rest as ops -> if c' = c then ops else with_second c rest
  | [] -> []

(* Two-character operators, then single-character punctuation. *)
let lex_operator st c line =
  let ops =
    if st.pos + 1 < st.len then
      with_second st.src.[st.pos + 1] two_char_index.(Char.code c)
    else []
  in
  match ops with
  | (_, k, op) :: _ ->
      st.pos <- st.pos + 2;
      Token.make k op line
  | [] ->
      if is_punct_char.(Char.code c) then begin
        st.pos <- st.pos + 1;
        Token.make Token.Punct single_char.(Char.code c) line
      end
      else fail st (Printf.sprintf "unexpected character %C" c)

(* Heredoc / nowdoc literals (PHP 5 closing rule: the label starts in
   column 0, optionally followed by a single [;]).  [<<<EOT] and
   [<<<"EOT"] interpolate (T_HEREDOC); [<<<'EOT'] does not (T_NOWDOC).
   Unlike the quoted-string tokens, the lexeme is the {e raw body} with no
   quote framing — the parser feeds it to its interpolation scanner (or
   takes it verbatim for a nowdoc), so bodies containing quotes or
   backslashes survive unharmed.  Bodies are not interned: each one is
   unique, so interning would only grow the table. *)
let lex_heredoc st =
  let line = st.line and s = st.src and len = st.len in
  st.pos <- skip_while is_blank s (st.pos + 3);
  let quote =
    if at st 0 '\'' || at st 0 '"' then begin
      st.pos <- st.pos + 1;
      Some s.[st.pos - 1]
    end
    else None
  in
  let label_start = st.pos in
  st.pos <- skip_while is_ident_char s st.pos;
  let n = st.pos - label_start in
  if n = 0 then fail st "heredoc: missing label after <<<";
  (match quote with
  | Some q ->
      if at st 0 q then st.pos <- st.pos + 1
      else fail st "heredoc: unterminated label quote"
  | None -> ());
  if at st 0 '\r' then st.pos <- st.pos + 1;
  if at st 0 '\n' then begin
    st.line <- st.line + 1;
    st.pos <- st.pos + 1
  end
  else fail st "heredoc: label must be followed by a newline";
  let label = String.sub s label_start n in
  let body_start = st.pos in
  (* find the line that starts with the closing label *)
  let rec find_close i =
    if i >= len then fail st "unterminated heredoc"
    else if
      i + n <= len
      && same_bytes label s i 0
      && (i + n = len
          ||
          match s.[i + n] with ';' | '\n' | '\r' -> true | _ -> false)
    then i
    else
      let j = skip_while (fun c -> c <> '\n') s i in
      if j >= len then fail st "unterminated heredoc" else find_close (j + 1)
  in
  let close = find_close st.pos in
  (* the newline that precedes the closing label belongs to the delimiter,
     not the body *)
  let body_end =
    if close > body_start && s.[close - 1] = '\n' then
      if close - 1 > body_start && s.[close - 2] = '\r' then close - 2
      else close - 1
    else close
  in
  let body = String.sub s body_start (body_end - body_start) in
  st.line <- st.line + newlines_in s body_start close;
  st.pos <- close + n;
  let kind = if quote = Some '\'' then Token.T_NOWDOC else Token.T_HEREDOC in
  Token.make kind body line

let lex_php_token st =
  let line = st.line and start = st.pos in
  if start >= st.len then fail st "unexpected EOF";
  match st.src.[start] with
  | '?' when at st 1 '>' ->
      st.pos <- start + 2;
      st.in_php <- false;
      (* PHP consumes a single newline straight after the close tag. *)
      if at st 0 '\n' then begin
        st.line <- st.line + 1;
        st.pos <- st.pos + 1
      end;
      Token.make Token.T_CLOSE_TAG "?>" line
  | ' ' | '\t' | '\n' | '\r' ->
      while
        st.pos < st.len
        &&
        match String.unsafe_get st.src st.pos with
        | '\n' ->
            st.line <- st.line + 1;
            true
        | ' ' | '\t' | '\r' -> true
        | _ -> false
      do
        st.pos <- st.pos + 1
      done;
      Token.make Token.T_WHITESPACE (intern st start st.pos) line
  | '=' when at st 1 '=' && at st 2 '=' ->
      st.pos <- start + 3;
      Token.make Token.T_IS_IDENTICAL "===" line
  | '!' when at st 1 '=' && at st 2 '=' ->
      st.pos <- start + 3;
      Token.make Token.T_IS_NOT_IDENTICAL "!==" line
  | '/' when at st 1 '/' -> lex_line_comment st
  | '#' -> lex_line_comment st
  | '/' when at st 1 '*' -> lex_block_comment st
  | '$' when start + 1 < st.len && is_ident_start st.src.[start + 1] ->
      st.pos <- skip_while is_ident_char st.src (start + 1);
      Token.make Token.T_VARIABLE (intern st start st.pos) line
  | 'a' .. 'z' | 'A' .. 'Z' | '_' -> (
      st.pos <- skip_while is_ident_char st.src start;
      let word = intern st start st.pos in
      match Token.keyword_kind word with
      | Some k -> Token.make k word line
      | None -> Token.make Token.T_STRING word line)
  | '0' .. '9' -> lex_number st
  | '\'' ->
      lex_quoted st '\'' Token.T_CONSTANT_STRING
        "unterminated single-quoted string"
  | '"' ->
      lex_quoted st '"' Token.T_ENCAPSED_STRING
        "unterminated double-quoted string"
  | '<' when at st 1 '<' && at st 2 '<' -> lex_heredoc st
  | '(' -> lex_paren st
  | c -> lex_operator st c line

(* One token from the current lexer state.  The precondition is
   [st.pos < String.length st.src]; the caller emits T_EOF itself.  Every
   path captures [st.line] before consuming input, so a token's [line] is
   always the lexer's line counter at the token's first byte. *)
let step st =
  if st.in_php then lex_php_token st
  else if at st 0 '<' && at st 1 '?' then begin
    let line = st.line in
    st.in_php <- true;
    let ci i c = at st i c || at st i (Char.uppercase_ascii c) in
    if ci 2 'p' && ci 3 'h' && ci 4 'p' then begin
      st.pos <- st.pos + 5;
      Token.make Token.T_OPEN_TAG "<?php" line
    end
    else if at st 2 '=' then begin
      (* short echo tag: open-tag + echo in one token *)
      st.pos <- st.pos + 3;
      Token.make Token.T_OPEN_TAG_WITH_ECHO "<?=" line
    end
    else begin
      st.pos <- st.pos + 2;
      Token.make Token.T_OPEN_TAG "<?" line
    end
  end
  else lex_inline_html st

let eof st = Token.make Token.T_EOF "" st.line

(** Tokenize a full PHP source file.  Returns every token, including
    whitespace and comments, terminated by a single {!Token.T_EOF}. *)
let tokenize src =
  let st = make_state src in
  let[@tail_mod_cons] rec loop () =
    if st.pos >= st.len then [ eof st ]
    else
      let t = step st in
      t :: loop ()
  in
  with_counters st loop

let is_significant (t : Token.t) =
  match t.Token.kind with
  | Token.T_WHITESPACE | Token.T_COMMENT | Token.T_DOC_COMMENT -> false
  | _ -> true

(** Drop whitespace and comments — phpSAFE "cleans the AST by removing
    comments and extra whitespaces" (§III.B). *)
let significant tokens = List.filter is_significant tokens

(* Where a reader stands: still lexing, past the end (answering its T_EOF
   for ever), or stopped by a lexical error (raising it again). *)
type reader_state = Lexing | Ended of Token.t | Failed of exn

(* The significant tokens of [src], pulled one at a time, so a consumer
   holds only the tokens it keeps.  The intern counters are published
   once, when the reader reaches the end or raises. *)
let reader src =
  let st = make_state src in
  let state = ref Lexing in
  let rec next () =
    match !state with
    | Lexing ->
        if st.pos >= st.len then begin
          let t = eof st in
          state := Ended t;
          publish_counters st;
          t
        end
        else begin
          match step st with
          | t -> if is_significant t then t else next ()
          | exception (Error _ as e) ->
              state := Failed e;
              publish_counters st;
              raise e
        end
    | Ended t -> t
    | Failed e -> raise e
  in
  next

let drain next =
  let rec go n =
    if (next ()).Token.kind = Token.T_EOF then n + 1 else go (n + 1)
  in
  go 0

let tokenize_significant src =
  let next = reader src in
  let[@tail_mod_cons] rec collect () =
    let t = next () in
    if t.Token.kind = Token.T_EOF then [ t ] else t :: collect ()
  in
  collect ()
