(** Recursive-descent parser for the PHP 5 subset in {!Ast}.

    The grammar follows PHP's operator precedence ([or]/[xor] < [and] <
    assignment < ternary < [||] < [&&] < equality < relational < additive/[.]
    < multiplicative < unary < postfix).  Double-quoted strings are expanded
    into {!Ast.Interp} parts here, including [$var], [$var->prop],
    [$arr[key]] and [{$expr}] interpolation — the construct behind the
    paper's running example
    ["SELECT * FROM " . $wpdb->prefix . "sml"]. *)

exception Parse_error of string * Ast.pos
exception Depth_exceeded of string * Ast.pos

(* Nesting-depth fuel: bounds recursion in [parse_expr]/[parse_unary]/
   [parse_stmt] so pathological inputs ("((((...))))", "!!!!...1") abort
   with {!Depth_exceeded} long before the OCaml stack is at risk.  The
   limit is process-global (an [Atomic.t], so parallel drivers may tune it
   once up front) and deliberately generous: real plugin code nests a few
   dozen levels at most. *)
let default_nesting_limit = 512
let nesting_fuel = Atomic.make default_nesting_limit
let set_nesting_limit n = Atomic.set nesting_fuel (max 16 n)
let nesting_limit () = Atomic.get nesting_fuel

type state = {
  next : unit -> Token.t;
      (* the token source (a lexer reader, or a list), never called again
         once it has given T_EOF *)
  mutable tok : Token.t;  (* the current token *)
  mutable ahead : Token.t;
      (* the token after [tok] once [peek2] pulled it, else [no_token] *)
  mutable depth : int;
  file : string;
  mutable line_pos : Ast.pos;  (* the last position built *)
}

let no_token = Token.make Token.T_EOF "" 0

let init ~file next =
  { next; tok = next (); ahead = no_token; depth = 0; file;
    line_pos = { Ast.file; line = 0 } }

(* Nodes from one line share one position record. *)
let pos_of st (t : Token.t) : Ast.pos =
  let p = st.line_pos in
  if p.Ast.line = t.Token.line then p
  else begin
    let p = { Ast.file = st.file; line = t.Token.line } in
    st.line_pos <- p;
    p
  end

let expr_at pos e : Ast.expr = { Ast.e; epos = pos }
let stmt_at pos s : Ast.stmt = { Ast.s; spos = pos }
let peek st = st.tok

(* The token after the current one; the current T_EOF is its own
   successor. *)
let peek2 st =
  if st.tok.Token.kind = Token.T_EOF then st.tok
  else begin
    if st.ahead == no_token then st.ahead <- st.next ();
    st.ahead
  end

let here st = pos_of st (peek st)

(* [Depth_exceeded] aborts the whole parse and the state is then discarded,
   so [deepen]'s increment needs no exception-safe restore — the paired
   decrement in the wrappers below only matters on the success path. *)
let deepen st =
  st.depth <- st.depth + 1;
  let fuel = Atomic.get nesting_fuel in
  if st.depth > fuel then
    raise
      (Depth_exceeded
         ( Printf.sprintf "nesting depth exceeds the budget of %d" fuel,
           here st ))

let fail st msg =
  let t = peek st in
  raise
    (Parse_error
       (Printf.sprintf "%s (at %s %S)" msg (Token.name t.Token.kind) t.Token.lexeme,
        here st))

let advance st =
  let t = st.tok in
  if t.Token.kind <> Token.T_EOF then begin
    let t2 = st.ahead in
    if t2 == no_token then st.tok <- st.next ()
    else begin
      st.ahead <- no_token;
      st.tok <- t2
    end
  end;
  t

let check st kind = (peek st).Token.kind = kind
let check_punct st c = Token.is_punct (peek st) c

let eat st kind =
  if check st kind then advance st
  else fail st (Printf.sprintf "expected %s" (Token.name kind))

let eat_punct st c =
  if check_punct st c then advance st
  else fail st (Printf.sprintf "expected %C" c)

let skip_if st kind = if check st kind then (ignore (advance st); true) else false
let skip_punct_if st c =
  if check_punct st c then (ignore (advance st); true) else false

(* [parse ()] over the reader [next], with the errors of lexing the whole
   input first: when anything escapes the parse, the rest of the input is
   lexed, and a lexical error there replaces the parser's exception. *)
let lexing_first next parse =
  match parse () with
  | v -> v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      ignore (Lexer.drain next);
      Printexc.raise_with_backtrace e bt

(* ------------------------------------------------------------------ *)
(* String literal decoding                                            *)
(* ------------------------------------------------------------------ *)

(* Decode a single-quoted lexeme (quotes included): only \' and \\ escape. *)
let decode_single lexeme =
  let body = String.sub lexeme 1 (String.length lexeme - 2) in
  let buf = Buffer.create (String.length body) in
  let i = ref 0 in
  let n = String.length body in
  while !i < n do
    if body.[!i] = '\\' && !i + 1 < n && (body.[!i + 1] = '\'' || body.[!i + 1] = '\\')
    then begin
      Buffer.add_char buf body.[!i + 1];
      i := !i + 2
    end
    else begin
      Buffer.add_char buf body.[!i];
      incr i
    end
  done;
  Buffer.contents buf

(* PHP integer-literal semantics: 0x../0b.. are hex/binary (OCaml's
   [int_of_string] already reads those), a leading zero means octal
   ("0755" is 493), anything else is decimal.  Malformed octal like "08"
   falls back to decimal, the closest to PHP 5's silent truncation that
   keeps the literal's value recognisable. *)
let int_of_lnumber lexeme =
  let is_octal_digit c = c >= '0' && c <= '7' in
  let len = String.length lexeme in
  if len > 1 && lexeme.[0] = '0' then
    match lexeme.[1] with
    | 'x' | 'X' | 'b' | 'B' -> int_of_string lexeme
    | _ ->
        let body = String.sub lexeme 1 (len - 1) in
        if String.for_all is_octal_digit body then int_of_string ("0o" ^ body)
        else int_of_string lexeme
  else int_of_string lexeme

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

(* [Punct] lexemes are one byte long. *)
let punct_char (t : Token.t) = String.unsafe_get t.Token.lexeme 0

(* Operator tables, one per precedence level: the operator [t] spells at
   that level, if any. *)

let logical_low_op (t : Token.t) =
  match t.Token.kind with
  | Token.T_LOGICAL_OR -> Some Ast.BoolOr
  | Token.T_LOGICAL_XOR -> Some Ast.NotIdentical
  | _ -> None

let logical_and_low_op (t : Token.t) =
  if t.Token.kind = Token.T_LOGICAL_AND then Some Ast.BoolAnd else None

let bool_or_op (t : Token.t) =
  if t.Token.kind = Token.T_BOOLEAN_OR then Some Ast.BoolOr else None

let bool_and_op (t : Token.t) =
  if t.Token.kind = Token.T_BOOLEAN_AND then Some Ast.BoolAnd else None

let equality_op (t : Token.t) =
  match t.Token.kind with
  | Token.T_IS_EQUAL -> Some Ast.Eq
  | Token.T_IS_NOT_EQUAL -> Some Ast.Neq
  | Token.T_IS_IDENTICAL -> Some Ast.Identical
  | Token.T_IS_NOT_IDENTICAL -> Some Ast.NotIdentical
  | _ -> None

let relational_op (t : Token.t) =
  match t.Token.kind with
  | Token.Punct -> (
      match punct_char t with
      | '<' -> Some Ast.Lt
      | '>' -> Some Ast.Gt
      | _ -> None)
  | Token.T_IS_SMALLER_OR_EQUAL -> Some Ast.Le
  | Token.T_IS_GREATER_OR_EQUAL -> Some Ast.Ge
  | _ -> None

let additive_op (t : Token.t) =
  match t.Token.kind with
  | Token.Punct -> (
      match punct_char t with
      | '+' -> Some Ast.Plus
      | '-' -> Some Ast.Minus
      | '.' -> Some Ast.Concat
      | _ -> None)
  | _ -> None

let multiplicative_op (t : Token.t) =
  match t.Token.kind with
  | Token.Punct -> (
      match punct_char t with
      | '*' -> Some Ast.Mul
      | '/' -> Some Ast.Div
      | '%' -> Some Ast.Mod
      | _ -> None)
  | _ -> None

let compound_assign_op (t : Token.t) =
  match t.Token.kind with
  | Token.T_CONCAT_EQUAL -> Some Ast.Concat
  | Token.T_PLUS_EQUAL -> Some Ast.Plus
  | Token.T_MINUS_EQUAL -> Some Ast.Minus
  | Token.T_MUL_EQUAL -> Some Ast.Mul
  | Token.T_DIV_EQUAL -> Some Ast.Div
  | Token.T_MOD_EQUAL -> Some Ast.Mod
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Expressions                                                        *)
(* ------------------------------------------------------------------ *)

let rec parse_expr st : Ast.expr =
  deepen st;
  let e = parse_logical_low st in
  st.depth <- st.depth - 1;
  e

(* One left-associative level: [lhs], then any number of ([op_of]
   operator, [operand]) pairs.  The level's functions are passed in, so
   the loop allocates nothing but the nodes it builds. *)
and binary_rest st op_of operand lhs =
  let t = peek st in
  match op_of t with
  | Some op ->
      ignore (advance st);
      let pos = pos_of st t in
      binary_rest st op_of operand (expr_at pos (Ast.Bin (op, lhs, operand st)))
  | None -> lhs

(* or / xor — lowest precedence *)
and parse_logical_low st =
  binary_rest st logical_low_op parse_logical_and_low (parse_logical_and_low st)

and parse_logical_and_low st =
  binary_rest st logical_and_low_op parse_assignment (parse_assignment st)

and parse_assignment st =
  let lhs = parse_ternary st in
  let t = peek st in
  if t.Token.kind = Token.Punct && punct_char t = '=' then begin
    ignore (advance st);
    let pos = pos_of st t in
    if check_punct st '&' then begin
      ignore (advance st);
      expr_at pos (Ast.AssignRef (lhs, parse_assignment st))
    end
    else expr_at pos (Ast.Assign (lhs, parse_assignment st))
  end
  else
    match compound_assign_op t with
    | Some op ->
        ignore (advance st);
        let pos = pos_of st t in
        expr_at pos (Ast.OpAssign (op, lhs, parse_assignment st))
    | None -> lhs

and parse_ternary st =
  let cond = parse_coalesce st in
  if check_punct st '?' then begin
    let pos = pos_of st (advance st) in
    if skip_punct_if st ':' then
      let els = parse_ternary st in
      expr_at pos (Ast.Ternary (cond, None, els))
    else
      let thn = parse_expr st in
      ignore (eat_punct st ':');
      let els = parse_ternary st in
      expr_at pos (Ast.Ternary (cond, Some thn, els))
  end
  else cond

(* ?? — between the ternary and ||, right-associative as in PHP *)
and parse_coalesce st =
  let lhs = parse_bool_or st in
  if check st Token.T_COALESCE then begin
    let pos = pos_of st (advance st) in
    let rhs = parse_coalesce st in
    expr_at pos (Ast.Bin (Ast.Coalesce, lhs, rhs))
  end
  else lhs

and parse_bool_or st =
  binary_rest st bool_or_op parse_bool_and (parse_bool_and st)

and parse_bool_and st =
  binary_rest st bool_and_op parse_equality (parse_equality st)

and parse_equality st =
  binary_rest st equality_op parse_relational (parse_relational st)

and parse_relational st =
  binary_rest st relational_op parse_additive (parse_additive st)

and parse_additive st =
  binary_rest st additive_op parse_multiplicative (parse_multiplicative st)

and parse_multiplicative st =
  binary_rest st multiplicative_op parse_unary (parse_unary st)

and parse_unary st =
  (* guarded separately from [parse_expr]: prefix-operator chains recurse
     through [parse_unary] without ever re-entering [parse_expr] *)
  deepen st;
  let e = parse_unary_body st in
  st.depth <- st.depth - 1;
  e

and parse_unary_body st =
  let t = peek st in
  let pos = pos_of st t in
  match t.Token.kind with
  | Token.Punct when punct_char t = '!' ->
      ignore (advance st);
      expr_at pos (Ast.Un (Ast.Not, parse_unary st))
  | Token.Punct when punct_char t = '-' ->
      ignore (advance st);
      expr_at pos (Ast.Un (Ast.Neg, parse_unary st))
  | Token.Punct when punct_char t = '@' ->
      ignore (advance st);
      expr_at pos (Ast.Un (Ast.Silence, parse_unary st))
  | Token.T_INC ->
      ignore (advance st);
      expr_at pos (Ast.Un (Ast.PreInc, parse_unary st))
  | Token.T_DEC ->
      ignore (advance st);
      expr_at pos (Ast.Un (Ast.PreDec, parse_unary st))
  | Token.T_INT_CAST ->
      ignore (advance st);
      expr_at pos (Ast.CastE (Ast.CastInt, parse_unary st))
  | Token.T_FLOAT_CAST ->
      ignore (advance st);
      expr_at pos (Ast.CastE (Ast.CastFloat, parse_unary st))
  | Token.T_STRING_CAST ->
      ignore (advance st);
      expr_at pos (Ast.CastE (Ast.CastString, parse_unary st))
  | Token.T_ARRAY_CAST ->
      ignore (advance st);
      expr_at pos (Ast.CastE (Ast.CastArray, parse_unary st))
  | Token.T_BOOL_CAST ->
      ignore (advance st);
      expr_at pos (Ast.CastE (Ast.CastBool, parse_unary st))
  | Token.T_NEW ->
      ignore (advance st);
      let name = (eat st Token.T_STRING).Token.lexeme in
      let args = if check_punct st '(' then parse_args st else [] in
      parse_postfix st (expr_at pos (Ast.New (name, args)))
  | Token.T_PRINT ->
      ignore (advance st);
      expr_at pos (Ast.PrintE (parse_expr st))
  | Token.T_EXIT ->
      ignore (advance st);
      if skip_punct_if st '(' then
        if skip_punct_if st ')' then expr_at pos (Ast.Exit None)
        else
          let e = parse_expr st in
          ignore (eat_punct st ')');
          expr_at pos (Ast.Exit (Some e))
      else expr_at pos (Ast.Exit None)
  | Token.T_INCLUDE | Token.T_INCLUDE_ONCE | Token.T_REQUIRE
  | Token.T_REQUIRE_ONCE ->
      let kind =
        match t.Token.kind with
        | Token.T_INCLUDE -> Ast.Include
        | Token.T_INCLUDE_ONCE -> Ast.IncludeOnce
        | Token.T_REQUIRE -> Ast.Require
        | _ -> Ast.RequireOnce
      in
      ignore (advance st);
      (* Parenthesised or bare operand; either way one expression. *)
      expr_at pos (Ast.IncludeE (kind, parse_expr st))
  | _ -> parse_postfix_chain st

and parse_args st =
  ignore (eat_punct st '(');
  if skip_punct_if st ')' then []
  else
    let rec loop acc =
      (* by-reference call-site markers (&$x) are parsed and dropped *)
      ignore (skip_punct_if st '&');
      let e = parse_expr st in
      if skip_punct_if st ',' then loop (e :: acc)
      else begin
        ignore (eat_punct st ')');
        List.rev (e :: acc)
      end
    in
    loop []

and parse_postfix_chain st =
  let base = parse_primary st in
  parse_postfix st base

and parse_postfix st base =
  let t = peek st in
  match t.Token.kind with
  | Token.T_OBJECT_OPERATOR ->
      ignore (advance st);
      let name = (eat st Token.T_STRING).Token.lexeme in
      if check_punct st '(' then
        let args = parse_args st in
        parse_postfix st
          (expr_at (pos_of st t) (Ast.MethodCall (base, name, args)))
      else
        parse_postfix st (expr_at (pos_of st t) (Ast.Prop (base, name)))
  | Token.Punct when punct_char t = '[' ->
      ignore (advance st);
      if skip_punct_if st ']' then
        parse_postfix st (expr_at (pos_of st t) (Ast.ArrayGet (base, None)))
      else begin
        let idx = parse_expr st in
        ignore (eat_punct st ']');
        parse_postfix st
          (expr_at (pos_of st t) (Ast.ArrayGet (base, Some idx)))
      end
  | Token.T_INC ->
      ignore (advance st);
      parse_postfix st (expr_at (pos_of st t) (Ast.Un (Ast.PostInc, base)))
  | Token.T_DEC ->
      ignore (advance st);
      parse_postfix st (expr_at (pos_of st t) (Ast.Un (Ast.PostDec, base)))
  | _ -> base

and parse_primary st =
  let t = peek st in
  let pos = pos_of st t in
  match t.Token.kind with
  | Token.T_LNUMBER ->
      ignore (advance st);
      expr_at pos (Ast.Int (int_of_lnumber t.Token.lexeme))
  | Token.T_DNUMBER ->
      ignore (advance st);
      expr_at pos (Ast.Float (float_of_string t.Token.lexeme))
  | Token.T_CONSTANT_STRING ->
      ignore (advance st);
      expr_at pos (Ast.Str (decode_single t.Token.lexeme))
  | Token.T_ENCAPSED_STRING ->
      ignore (advance st);
      parse_interp st t
  | Token.T_NOWDOC ->
      (* <<<'EOT': no interpolation, the raw body is the literal *)
      ignore (advance st);
      expr_at pos (Ast.Str t.Token.lexeme)
  | Token.T_HEREDOC ->
      (* <<<EOT: interpolates exactly like a double-quoted body *)
      ignore (advance st);
      parse_interp_body st ~pos t.Token.lexeme
  | Token.T_NULL ->
      ignore (advance st);
      expr_at pos Ast.Null
  | Token.T_TRUE ->
      ignore (advance st);
      expr_at pos Ast.True
  | Token.T_FALSE ->
      ignore (advance st);
      expr_at pos Ast.False
  | Token.T_VARIABLE ->
      ignore (advance st);
      expr_at pos (Ast.Var t.Token.lexeme)
  | Token.T_ISSET ->
      ignore (advance st);
      ignore (eat_punct st '(');
      let rec loop acc =
        let e = parse_expr st in
        if skip_punct_if st ',' then loop (e :: acc)
        else begin
          ignore (eat_punct st ')');
          List.rev (e :: acc)
        end
      in
      expr_at pos (Ast.Isset (loop []))
  | Token.T_EMPTY ->
      ignore (advance st);
      ignore (eat_punct st '(');
      let e = parse_expr st in
      ignore (eat_punct st ')');
      expr_at pos (Ast.EmptyE e)
  | Token.T_LIST ->
      ignore (advance st);
      ignore (eat_punct st '(');
      let rec loop acc =
        if check_punct st ',' then begin
          ignore (advance st);
          loop (None :: acc)
        end
        else if check_punct st ')' then acc
        else
          let e = parse_expr st in
          if skip_punct_if st ',' then loop (Some e :: acc)
          else Some e :: acc
      in
      let slots = List.rev (loop []) in
      ignore (eat_punct st ')');
      ignore (eat_punct st '=');
      let rhs = parse_expr st in
      expr_at pos (Ast.ListAssign (slots, rhs))
  | Token.T_ARRAY ->
      ignore (advance st);
      expr_at pos (Ast.ArrayLit (parse_array_items st '(' ')'))
  | Token.Punct when punct_char t = '[' ->
      expr_at pos (Ast.ArrayLit (parse_array_items st '[' ']'))
  | Token.Punct when punct_char t = '(' ->
      ignore (advance st);
      let e = parse_expr st in
      ignore (eat_punct st ')');
      e
  | Token.T_FUNCTION ->
      (* closure expression *)
      ignore (advance st);
      let params = parse_params st in
      let uses =
        if skip_if st Token.T_USE then begin
          ignore (eat_punct st '(');
          let rec loop acc =
            let by_ref = skip_punct_if st '&' in
            let v = (eat st Token.T_VARIABLE).Token.lexeme in
            if skip_punct_if st ',' then loop ((v, by_ref) :: acc)
            else begin
              ignore (eat_punct st ')');
              List.rev ((v, by_ref) :: acc)
            end
          in
          loop []
        end
        else []
      in
      let body = parse_braced_block st in
      expr_at pos
        (Ast.Closure { Ast.cl_params = params; cl_uses = uses; cl_body = body })
  | Token.T_STRING -> (
      let name = t.Token.lexeme in
      ignore (advance st);
      match (peek st).Token.kind with
      | Token.Punct when punct_char (peek st) = '(' ->
          let args = parse_args st in
          expr_at pos (Ast.Call (name, args))
      | Token.T_DOUBLE_COLON -> (
          ignore (advance st);
          let nt = peek st in
          match nt.Token.kind with
          | Token.T_VARIABLE ->
              ignore (advance st);
              expr_at pos (Ast.StaticProp (name, nt.Token.lexeme))
          | Token.T_STRING ->
              ignore (advance st);
              if check_punct st '(' then
                let args = parse_args st in
                expr_at pos (Ast.StaticCall (name, nt.Token.lexeme, args))
              else expr_at pos (Ast.ClassConst (name, nt.Token.lexeme))
          | _ -> fail st "expected member after ::")
      | _ -> expr_at pos (Ast.Const name))
  | _ -> fail st "unexpected token in expression"

and parse_array_items st opener closer =
  ignore (eat_punct st opener);
  if skip_punct_if st closer then []
  else
    let rec loop acc =
      if check_punct st closer then begin
        ignore (advance st);
        List.rev acc
      end
      else begin
        let first = parse_expr st in
        let item =
          if skip_if st Token.T_DOUBLE_ARROW then begin
            ignore (skip_punct_if st '&');
            (Some first, parse_expr st)
          end
          else (None, first)
        in
        if skip_punct_if st ',' then loop (item :: acc)
        else begin
          ignore (eat_punct st closer);
          List.rev (item :: acc)
        end
      end
    in
    loop []

(* --- double-quoted string interpolation ---------------------------- *)

and parse_interp st (tok : Token.t) : Ast.expr =
  let pos = pos_of st tok in
  let body = String.sub tok.Token.lexeme 1 (String.length tok.Token.lexeme - 2) in
  parse_interp_body st ~pos body

(* Shared by double-quoted strings (quotes already stripped) and heredoc
   bodies (raw, never quote-framed). *)
and parse_interp_body st ~pos body : Ast.expr =
  let n = String.length body in
  let parts = ref [] in
  let lit = Buffer.create 16 in
  let flush_lit () =
    if Buffer.length lit > 0 then begin
      parts := Ast.ILit (Buffer.contents lit) :: !parts;
      Buffer.clear lit
    end
  in
  let i = ref 0 in
  while !i < n do
    let c = body.[!i] in
    if c = '\\' && !i + 1 < n then begin
      (let e = body.[!i + 1] in
       match e with
       | 'n' -> Buffer.add_char lit '\n'
       | 't' -> Buffer.add_char lit '\t'
       | 'r' -> Buffer.add_char lit '\r'
       | '"' -> Buffer.add_char lit '"'
       | '\\' -> Buffer.add_char lit '\\'
       | '$' -> Buffer.add_char lit '$'
       | '0' -> Buffer.add_char lit '\000'
       | _ ->
           Buffer.add_char lit '\\';
           Buffer.add_char lit e);
      i := !i + 2
    end
    else if c = '$' && !i + 1 < n && is_ident_start body.[!i + 1] then begin
      flush_lit ();
      let j = ref (!i + 1) in
      while !j < n && is_ident_char body.[!j] do incr j done;
      let var = expr_at pos (Ast.Var (String.sub body !i (!j - !i))) in
      i := !j;
      (* optional one-level suffix: ->prop or [key] *)
      if !i + 2 < n && body.[!i] = '-' && body.[!i + 1] = '>'
         && is_ident_start body.[!i + 2]
      then begin
        let k = ref (!i + 2) in
        while !k < n && is_ident_char body.[!k] do incr k done;
        let prop = String.sub body (!i + 2) (!k - (!i + 2)) in
        parts := Ast.IExpr (expr_at pos (Ast.Prop (var, prop))) :: !parts;
        i := !k
      end
      else if !i < n && body.[!i] = '[' then begin
        let close =
          match String.index_from_opt body !i ']' with
          | Some c -> c
          | None -> raise (Parse_error ("unterminated [ in string", pos))
        in
        let key = String.sub body (!i + 1) (close - !i - 1) in
        let key_expr =
          if String.length key > 0 && key.[0] = '$' then expr_at pos (Ast.Var key)
          else
            match int_of_string_opt key with
            | Some v -> expr_at pos (Ast.Int v)
            | None ->
                (* bare or quoted word key *)
                let key =
                  if String.length key >= 2
                     && (key.[0] = '\'' || key.[0] = '"')
                  then String.sub key 1 (String.length key - 2)
                  else key
                in
                expr_at pos (Ast.Str key)
        in
        parts := Ast.IExpr (expr_at pos (Ast.ArrayGet (var, Some key_expr))) :: !parts;
        i := close + 1
      end
      else parts := Ast.IExpr var :: !parts
    end
    else if c = '{' && !i + 1 < n && body.[!i + 1] = '$' then begin
      flush_lit ();
      (* a region whose quoted strings run past the body is matched at the
         first brace that balances, so [expr_of_string] still meets its
         text and reports the lexical error in it *)
      let stop =
        match Lexer.region_end body !i n with
        | None -> Lexer.region_end ~quotes:false body !i n
        | stop -> stop
      in
      let stop =
        match stop with
        | Some stop -> stop
        | None -> raise (Parse_error ("unterminated {$ in string", pos))
      in
      let inner = String.sub body (!i + 1) (stop - !i - 2) in
      let e = expr_of_string ~file:st.file inner in
      parts := Ast.IExpr e :: !parts;
      i := stop
    end
    else begin
      Buffer.add_char lit c;
      incr i
    end
  done;
  flush_lit ();
  match List.rev !parts with
  | [ Ast.ILit s ] -> expr_at pos (Ast.Str s)
  | [] -> expr_at pos (Ast.Str "")
  | parts -> expr_at pos (Ast.Interp parts)

(* ------------------------------------------------------------------ *)
(* Statements                                                         *)
(* ------------------------------------------------------------------ *)

and parse_params st : Ast.param list =
  ignore (eat_punct st '(');
  if skip_punct_if st ')' then []
  else
    let rec loop acc =
      let hint =
        if check st Token.T_STRING then Some (advance st).Token.lexeme
        else if check st Token.T_ARRAY then begin
          ignore (advance st);
          Some "array"
        end
        else None
      in
      let by_ref = skip_punct_if st '&' in
      let name = (eat st Token.T_VARIABLE).Token.lexeme in
      let default =
        if skip_punct_if st '=' then Some (parse_expr st) else None
      in
      let p = { Ast.p_name = name; p_default = default; p_by_ref = by_ref; p_hint = hint } in
      if skip_punct_if st ',' then loop (p :: acc)
      else begin
        ignore (eat_punct st ')');
        List.rev (p :: acc)
      end
    in
    loop []

and parse_braced_block st : Ast.stmt list =
  ignore (eat_punct st '{');
  let rec loop acc =
    if check_punct st '}' then begin
      ignore (advance st);
      List.rev acc
    end
    else if check st Token.T_EOF then fail st "unexpected EOF in block"
    else loop (parse_stmt st :: acc)
  in
  loop []

(* a single statement or a braced group, as the body of if/while/... *)
and parse_body st : Ast.stmt list =
  if check_punct st '{' then parse_braced_block st else [ parse_stmt st ]

and parse_stmt st : Ast.stmt =
  deepen st;
  let s = parse_stmt_body st in
  st.depth <- st.depth - 1;
  s

and parse_stmt_body st : Ast.stmt =
  let t = peek st in
  let pos = pos_of st t in
  match t.Token.kind with
  | Token.Punct when punct_char t = ';' ->
      ignore (advance st);
      stmt_at pos Ast.Nop
  | Token.Punct when punct_char t = '{' -> stmt_at pos (Ast.Block (parse_braced_block st))
  | Token.T_ECHO | Token.T_OPEN_TAG_WITH_ECHO ->
      (* <?= is an open-tag + echo in one token *)
      ignore (advance st);
      let rec loop acc =
        let e = parse_expr st in
        if skip_punct_if st ',' then loop (e :: acc)
        else begin
          end_stmt st;
          List.rev (e :: acc)
        end
      in
      stmt_at pos (Ast.Echo (loop []))
  | Token.T_IF -> parse_if st pos
  | Token.T_WHILE ->
      ignore (advance st);
      ignore (eat_punct st '(');
      let cond = parse_expr st in
      ignore (eat_punct st ')');
      stmt_at pos (Ast.While (cond, parse_body st))
  | Token.T_DO ->
      ignore (advance st);
      let body = parse_body st in
      ignore (eat st Token.T_WHILE);
      ignore (eat_punct st '(');
      let cond = parse_expr st in
      ignore (eat_punct st ')');
      end_stmt st;
      stmt_at pos (Ast.DoWhile (body, cond))
  | Token.T_FOR ->
      ignore (advance st);
      ignore (eat_punct st '(');
      let init = parse_expr_list_until st ';' in
      let cond = parse_expr_list_until st ';' in
      let update = parse_expr_list_until st ')' in
      stmt_at pos (Ast.For (init, cond, update, parse_body st))
  | Token.T_FOREACH ->
      ignore (advance st);
      ignore (eat_punct st '(');
      let subject = parse_expr st in
      ignore (eat st Token.T_AS);
      ignore (skip_punct_if st '&');
      let first = parse_expr st in
      let binding =
        if skip_if st Token.T_DOUBLE_ARROW then begin
          ignore (skip_punct_if st '&');
          Ast.ForeachKeyValue (first, parse_expr st)
        end
        else Ast.ForeachValue first
      in
      ignore (eat_punct st ')');
      stmt_at pos (Ast.Foreach (subject, binding, parse_body st))
  | Token.T_SWITCH ->
      ignore (advance st);
      ignore (eat_punct st '(');
      let subject = parse_expr st in
      ignore (eat_punct st ')');
      ignore (eat_punct st '{');
      let rec cases acc =
        if skip_punct_if st '}' then List.rev acc
        else if skip_if st Token.T_CASE then begin
          let guard = parse_expr st in
          if not (skip_punct_if st ':') then ignore (eat_punct st ';');
          let body = parse_case_body st in
          cases ({ Ast.case_guard = Some guard; case_body = body } :: acc)
        end
        else if skip_if st Token.T_DEFAULT then begin
          if not (skip_punct_if st ':') then ignore (eat_punct st ';');
          let body = parse_case_body st in
          cases ({ Ast.case_guard = None; case_body = body } :: acc)
        end
        else fail st "expected case/default/}"
      in
      stmt_at pos (Ast.Switch (subject, cases []))
  | Token.T_BREAK ->
      ignore (advance st);
      (* optional break level, ignored *)
      if check st Token.T_LNUMBER then ignore (advance st);
      end_stmt st;
      stmt_at pos Ast.Break
  | Token.T_CONTINUE ->
      ignore (advance st);
      if check st Token.T_LNUMBER then ignore (advance st);
      end_stmt st;
      stmt_at pos Ast.Continue
  | Token.T_RETURN ->
      ignore (advance st);
      if check_punct st ';' || check st Token.T_CLOSE_TAG then begin
        end_stmt st;
        stmt_at pos (Ast.Return None)
      end
      else begin
        let e = parse_expr st in
        end_stmt st;
        stmt_at pos (Ast.Return (Some e))
      end
  | Token.T_GLOBAL ->
      ignore (advance st);
      let rec loop acc =
        let v = (eat st Token.T_VARIABLE).Token.lexeme in
        if skip_punct_if st ',' then loop (v :: acc)
        else begin
          end_stmt st;
          List.rev (v :: acc)
        end
      in
      stmt_at pos (Ast.Global (loop []))
  | Token.T_STATIC when (peek2 st).Token.kind = Token.T_VARIABLE ->
      ignore (advance st);
      let rec loop acc =
        let v = (eat st Token.T_VARIABLE).Token.lexeme in
        let init = if skip_punct_if st '=' then Some (parse_expr st) else None in
        if skip_punct_if st ',' then loop ((v, init) :: acc)
        else begin
          end_stmt st;
          List.rev ((v, init) :: acc)
        end
      in
      stmt_at pos (Ast.StaticVar (loop []))
  | Token.T_UNSET ->
      ignore (advance st);
      ignore (eat_punct st '(');
      let rec loop acc =
        let e = parse_expr st in
        if skip_punct_if st ',' then loop (e :: acc)
        else begin
          ignore (eat_punct st ')');
          end_stmt st;
          List.rev (e :: acc)
        end
      in
      stmt_at pos (Ast.Unset (loop []))
  | Token.T_FUNCTION when (peek2 st).Token.kind = Token.T_STRING ->
      ignore (advance st);
      let name = (eat st Token.T_STRING).Token.lexeme in
      let params = parse_params st in
      let body = parse_braced_block st in
      stmt_at pos (Ast.FuncDef { Ast.f_name = name; f_params = params; f_body = body; f_pos = pos })
  | Token.T_CLASS -> parse_class st pos false
  | Token.T_INTERFACE -> parse_class st pos true
  | Token.T_TRY ->
      ignore (advance st);
      let body = parse_braced_block st in
      let rec catches acc =
        if skip_if st Token.T_CATCH then begin
          ignore (eat_punct st '(');
          let cls = (eat st Token.T_STRING).Token.lexeme in
          let var = (eat st Token.T_VARIABLE).Token.lexeme in
          ignore (eat_punct st ')');
          let cbody = parse_braced_block st in
          catches ({ Ast.catch_class = cls; catch_var = var; catch_body = cbody } :: acc)
        end
        else List.rev acc
      in
      stmt_at pos (Ast.TryCatch (body, catches []))
  | Token.T_THROW ->
      ignore (advance st);
      let e = parse_expr st in
      end_stmt st;
      stmt_at pos (Ast.Throw e)
  | Token.T_CLOSE_TAG ->
      ignore (advance st);
      let buf = Buffer.create 64 in
      let rec gather () =
        if check st Token.T_INLINE_HTML then begin
          Buffer.add_string buf (advance st).Token.lexeme;
          gather ()
        end
      in
      gather ();
      (if check st Token.T_OPEN_TAG then ignore (advance st));
      stmt_at pos (Ast.InlineHtml (Buffer.contents buf))
  | Token.T_INLINE_HTML ->
      ignore (advance st);
      stmt_at pos (Ast.InlineHtml t.Token.lexeme)
  | Token.T_OPEN_TAG ->
      ignore (advance st);
      parse_stmt st
  | _ ->
      let e = parse_expr st in
      end_stmt st;
      stmt_at pos (Ast.Expr e)

(* Statement terminator: ';', or a close tag (which PHP accepts in place of
   the final semicolon). The close tag itself is left for parse_stmt. *)
and end_stmt st =
  if check_punct st ';' then ignore (advance st)
  else if check st Token.T_CLOSE_TAG || check st Token.T_EOF then ()
  else fail st "expected ';'"

and parse_expr_list_until st closer =
  if check_punct st closer then begin
    ignore (advance st);
    []
  end
  else
    let rec loop acc =
      let e = parse_expr st in
      if skip_punct_if st ',' then loop (e :: acc)
      else begin
        ignore (eat_punct st closer);
        List.rev (e :: acc)
      end
    in
    loop []

and parse_case_body st =
  let rec loop acc =
    if check st Token.T_CASE || check st Token.T_DEFAULT || check_punct st '}'
    then List.rev acc
    else loop (parse_stmt st :: acc)
  in
  loop []

and parse_if st pos =
  ignore (eat st Token.T_IF);
  ignore (eat_punct st '(');
  let cond = parse_expr st in
  ignore (eat_punct st ')');
  let body = parse_body st in
  let rec elifs acc =
    if check st Token.T_ELSEIF then begin
      ignore (advance st);
      ignore (eat_punct st '(');
      let c = parse_expr st in
      ignore (eat_punct st ')');
      let b = parse_body st in
      elifs ((c, b) :: acc)
    end
    else if check st Token.T_ELSE && (peek2 st).Token.kind = Token.T_IF
    then begin
      ignore (advance st);
      ignore (eat st Token.T_IF);
      ignore (eat_punct st '(');
      let c = parse_expr st in
      ignore (eat_punct st ')');
      let b = parse_body st in
      elifs ((c, b) :: acc)
    end
    else List.rev acc
  in
  let branches = (cond, body) :: elifs [] in
  let els = if skip_if st Token.T_ELSE then Some (parse_body st) else None in
  stmt_at pos (Ast.If (branches, els))

and parse_class st pos is_interface =
  ignore (advance st);
  let name = (eat st Token.T_STRING).Token.lexeme in
  let parent =
    if skip_if st Token.T_EXTENDS then Some (eat st Token.T_STRING).Token.lexeme
    else None
  in
  let implements =
    if skip_if st Token.T_IMPLEMENTS then begin
      let rec loop acc =
        let n = (eat st Token.T_STRING).Token.lexeme in
        if skip_punct_if st ',' then loop (n :: acc) else List.rev (n :: acc)
      in
      loop []
    end
    else []
  in
  ignore (eat_punct st '{');
  let consts = ref [] and props = ref [] and methods = ref [] in
  let rec members () =
    if skip_punct_if st '}' then ()
    else begin
      (* gather modifiers *)
      let vis = ref Ast.Public and is_static = ref false in
      let rec mods () =
        match (peek st).Token.kind with
        | Token.T_PUBLIC | Token.T_VAR ->
            ignore (advance st);
            vis := Ast.Public;
            mods ()
        | Token.T_PRIVATE ->
            ignore (advance st);
            vis := Ast.Private;
            mods ()
        | Token.T_PROTECTED ->
            ignore (advance st);
            vis := Ast.Protected;
            mods ()
        | Token.T_STATIC ->
            ignore (advance st);
            is_static := true;
            mods ()
        | _ -> ()
      in
      mods ();
      (match (peek st).Token.kind with
      | Token.T_CONST ->
          ignore (advance st);
          let rec cl () =
            let n = (eat st Token.T_STRING).Token.lexeme in
            ignore (eat_punct st '=');
            let v = parse_expr st in
            consts := (n, v) :: !consts;
            if skip_punct_if st ',' then cl () else ignore (eat_punct st ';')
          in
          cl ()
      | Token.T_VARIABLE ->
          let rec pl () =
            let n = (eat st Token.T_VARIABLE).Token.lexeme in
            let d = if skip_punct_if st '=' then Some (parse_expr st) else None in
            props :=
              { Ast.pr_vis = !vis; pr_static = !is_static; pr_name = n; pr_default = d }
              :: !props;
            if skip_punct_if st ',' then pl () else ignore (eat_punct st ';')
          in
          pl ()
      | Token.T_FUNCTION ->
          ignore (advance st);
          let fpos = here st in
          let fname = (eat st Token.T_STRING).Token.lexeme in
          let params = parse_params st in
          let body =
            if is_interface || check_punct st ';' then begin
              ignore (eat_punct st ';');
              []
            end
            else parse_braced_block st
          in
          methods :=
            { Ast.m_vis = !vis; m_static = !is_static;
              m_func = { Ast.f_name = fname; f_params = params; f_body = body; f_pos = fpos } }
            :: !methods
      | _ -> fail st "unexpected class member");
      members ()
    end
  in
  members ();
  stmt_at pos
    (Ast.ClassDef
       { Ast.c_name = name; c_parent = parent; c_implements = implements;
         c_consts = List.rev !consts; c_props = List.rev !props;
         c_methods = List.rev !methods; c_pos = pos })

(* ------------------------------------------------------------------ *)
(* Entry points                                                       *)
(* ------------------------------------------------------------------ *)

(** Parse a single expression given as PHP text (no [<?php] tag).  The
    whole text is lexed, so a lexical error after the expression still
    raises. *)
and expr_of_string ?(file = "<expr>") src : Ast.expr =
  let next = Lexer.reader ("<?php " ^ src ^ ";") in
  lexing_first next (fun () ->
      let st = init ~file next in
      ignore (eat st Token.T_OPEN_TAG);
      let e = parse_expr st in
      ignore (Lexer.drain next);
      e)

(* The top-level loop: statements up to T_EOF, skipping the T_OPEN_TAG
   tokens between them. *)
let program st : Ast.program =
  let rec loop acc =
    if check st Token.T_EOF then List.rev acc
    else if check st Token.T_OPEN_TAG then begin
      ignore (advance st);
      loop acc
    end
    else loop (parse_stmt st :: acc)
  in
  loop []

let pull_list tokens =
  let rest = ref tokens in
  fun () ->
    match !rest with
    | t :: tl ->
        rest := tl;
        t
    | [] -> invalid_arg "Parser.parse_tokens: no T_EOF"

let parse_tokens ~file tokens : Ast.program =
  program (init ~file (pull_list tokens))

(** Parse a full PHP source file, lexing it as the parse pulls tokens. *)
let parse_source ~file src : Ast.program =
  Obs.span "phplang.parse" (fun () ->
      let next = Lexer.reader src in
      lexing_first next (fun () -> program (init ~file next)))
