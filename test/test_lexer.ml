(** Lexer unit tests: token kinds, lexemes, line numbers, string handling,
    comments, casts, operators and PHP tag transitions. *)

open Phplang

let lex src = Lexer.tokenize_significant src

let kinds src =
  lex src
  |> List.filter_map (fun (t : Token.t) ->
         if t.Token.kind = Token.T_EOF then None else Some t.Token.kind)

let lexemes src =
  lex src
  |> List.filter_map (fun (t : Token.t) ->
         if t.Token.kind = Token.T_EOF then None else Some t.Token.lexeme)

let check_kinds name src expected =
  Alcotest.test_case name `Quick (fun () ->
      let got = kinds src |> List.map Token.name in
      let want = List.map Token.name expected in
      Alcotest.(check (list string)) name want got)

let t = Token.T_OPEN_TAG

let cases =
  [
    check_kinds "open tag and variable" "<?php $x;"
      [ t; Token.T_VARIABLE; Token.Punct ];
    check_kinds "superglobal name" "<?php $_GET;"
      [ t; Token.T_VARIABLE; Token.Punct ];
    check_kinds "keywords case-insensitive" "<?php IF Else WHILE;"
      [ t; Token.T_IF; Token.T_ELSE; Token.T_WHILE; Token.Punct ];
    check_kinds "die is exit" "<?php die;" [ t; Token.T_EXIT; Token.Punct ];
    check_kinds "identifier vs keyword" "<?php echoes;"
      [ t; Token.T_STRING; Token.Punct ];
    check_kinds "integers and floats" "<?php 42 3.14;"
      [ t; Token.T_LNUMBER; Token.T_DNUMBER; Token.Punct ];
    check_kinds "single-quoted string" "<?php 'abc';"
      [ t; Token.T_CONSTANT_STRING; Token.Punct ];
    check_kinds "double-quoted string" "<?php \"a $b c\";"
      [ t; Token.T_ENCAPSED_STRING; Token.Punct ];
    check_kinds "object operator" "<?php $a->b;"
      [ t; Token.T_VARIABLE; Token.T_OBJECT_OPERATOR; Token.T_STRING; Token.Punct ];
    check_kinds "double colon" "<?php A::b;"
      [ t; Token.T_STRING; Token.T_DOUBLE_COLON; Token.T_STRING; Token.Punct ];
    check_kinds "comparison operators" "<?php 1 == 2 === 3 != 4 !== 5;"
      [ t; Token.T_LNUMBER; Token.T_IS_EQUAL; Token.T_LNUMBER;
        Token.T_IS_IDENTICAL; Token.T_LNUMBER; Token.T_IS_NOT_EQUAL;
        Token.T_LNUMBER; Token.T_IS_NOT_IDENTICAL; Token.T_LNUMBER; Token.Punct ];
    check_kinds "compound assignment" "<?php $a .= $b;"
      [ t; Token.T_VARIABLE; Token.T_CONCAT_EQUAL; Token.T_VARIABLE; Token.Punct ];
    check_kinds "increment" "<?php $i++;"
      [ t; Token.T_VARIABLE; Token.T_INC; Token.Punct ];
    check_kinds "boolean operators" "<?php $a && $b || $c;"
      [ t; Token.T_VARIABLE; Token.T_BOOLEAN_AND; Token.T_VARIABLE;
        Token.T_BOOLEAN_OR; Token.T_VARIABLE; Token.Punct ];
    check_kinds "logical keywords" "<?php $a and $b or $c;"
      [ t; Token.T_VARIABLE; Token.T_LOGICAL_AND; Token.T_VARIABLE;
        Token.T_LOGICAL_OR; Token.T_VARIABLE; Token.Punct ];
    check_kinds "int cast" "<?php (int) $x;"
      [ t; Token.T_INT_CAST; Token.T_VARIABLE; Token.Punct ];
    check_kinds "cast with inner spaces" "<?php ( integer ) $x;"
      [ t; Token.T_INT_CAST; Token.T_VARIABLE; Token.Punct ];
    check_kinds "parens not cast" "<?php (intdiv) ;"
      [ t; Token.Punct; Token.T_STRING; Token.Punct; Token.Punct ];
    check_kinds "double arrow" "<?php array('a' => 1);"
      [ t; Token.T_ARRAY; Token.Punct; Token.T_CONSTANT_STRING; Token.T_DOUBLE_ARROW;
        Token.T_LNUMBER; Token.Punct; Token.Punct ];
    check_kinds "close tag to inline html"
      "<?php $x; ?>hello<?php $y;"
      [ t; Token.T_VARIABLE; Token.Punct; Token.T_CLOSE_TAG; Token.T_INLINE_HTML;
        t; Token.T_VARIABLE; Token.Punct ];
  ]

let number_cases =
  [
    Alcotest.test_case "hex literal is one integer token" `Quick (fun () ->
        Alcotest.(check (list string)) "lexemes" [ "<?php"; "0x1F"; ";" ]
          (lexemes "<?php 0x1F;");
        Alcotest.(check (list string)) "kinds"
          [ "T_OPEN_TAG"; "T_LNUMBER"; "PUNCT" ]
          (kinds "<?php 0x1F;" |> List.map Token.name));
    Alcotest.test_case "uppercase hex prefix" `Quick (fun () ->
        Alcotest.(check (list string)) "lexemes" [ "<?php"; "0Xff"; ";" ]
          (lexemes "<?php 0Xff;"));
    Alcotest.test_case "binary literal" `Quick (fun () ->
        Alcotest.(check (list string)) "lexemes" [ "<?php"; "0b1011"; ";" ]
          (lexemes "<?php 0b1011;"));
    Alcotest.test_case "octal literal stays one token" `Quick (fun () ->
        Alcotest.(check (list string)) "lexemes" [ "<?php"; "0755"; ";" ]
          (lexemes "<?php 0755;"));
    Alcotest.test_case "bare 0x is integer then identifier" `Quick (fun () ->
        Alcotest.(check (list string)) "kinds"
          [ "T_OPEN_TAG"; "T_LNUMBER"; "T_STRING"; "PUNCT" ]
          (kinds "<?php 0xg;" |> List.map Token.name));
    Alcotest.test_case "exponent float" `Quick (fun () ->
        Alcotest.(check (list string)) "kinds"
          [ "T_OPEN_TAG"; "T_DNUMBER"; "PUNCT" ]
          (kinds "<?php 1e3;" |> List.map Token.name);
        Alcotest.(check (list string)) "lexemes" [ "<?php"; "1e3"; ";" ]
          (lexemes "<?php 1e3;"));
    Alcotest.test_case "signed exponent with fraction" `Quick (fun () ->
        Alcotest.(check (list string)) "lexemes" [ "<?php"; "1.5E-2"; ";" ]
          (lexemes "<?php 1.5E-2;");
        Alcotest.(check (list string)) "plus sign" [ "<?php"; "2e+10"; ";" ]
          (lexemes "<?php 2e+10;"));
    Alcotest.test_case "trailing e is not an exponent" `Quick (fun () ->
        Alcotest.(check (list string)) "kinds"
          [ "T_OPEN_TAG"; "T_LNUMBER"; "T_STRING"; "PUNCT" ]
          (kinds "<?php 5en;" |> List.map Token.name));
    Alcotest.test_case "plain integers and floats still lex" `Quick (fun () ->
        Alcotest.(check (list string)) "kinds"
          [ "T_OPEN_TAG"; "T_LNUMBER"; "T_DNUMBER"; "PUNCT" ]
          (kinds "<?php 42 3.14;" |> List.map Token.name));
  ]

let line_cases =
  [
    Alcotest.test_case "line numbers track newlines" `Quick (fun () ->
        let tokens = lex "<?php\n$a;\n\n$b;" in
        let var_lines =
          List.filter_map
            (fun (tok : Token.t) ->
              if tok.Token.kind = Token.T_VARIABLE then Some tok.Token.line
              else None)
            tokens
        in
        Alcotest.(check (list int)) "lines" [ 2; 4 ] var_lines);
    Alcotest.test_case "backslash-newline in single-quoted string keeps lines"
      `Quick (fun () ->
        (* regression: the escape branch consumes two characters; the
           consumed newline must still bump the line counter *)
        let tokens = lex "<?php $a = 'x\\\ny';\n$b;" in
        let b_line =
          List.find_map
            (fun (tok : Token.t) ->
              if tok.Token.lexeme = "$b" then Some tok.Token.line else None)
            tokens
        in
        Alcotest.(check (option int)) "line of $b" (Some 3) b_line);
    Alcotest.test_case "backslash-newline in double-quoted string keeps lines"
      `Quick (fun () ->
        let tokens = lex "<?php $a = \"x\\\ny\";\n$b;" in
        let b_line =
          List.find_map
            (fun (tok : Token.t) ->
              if tok.Token.lexeme = "$b" then Some tok.Token.line else None)
            tokens
        in
        Alcotest.(check (option int)) "line of $b" (Some 3) b_line);
    Alcotest.test_case "lines inside strings" `Quick (fun () ->
        let tokens = lex "<?php $a = 'x\ny';\n$b;" in
        let b_line =
          List.find_map
            (fun (tok : Token.t) ->
              if tok.Token.lexeme = "$b" then Some tok.Token.line else None)
            tokens
        in
        Alcotest.(check (option int)) "line of $b" (Some 3) b_line);
    Alcotest.test_case "comments removed by significant" `Quick (fun () ->
        let got = lexemes "<?php // line\n/* block */ # hash\n$x;" in
        Alcotest.(check (list string)) "tokens" [ "<?php"; "$x"; ";" ] got);
    Alcotest.test_case "doc comment kind" `Quick (fun () ->
        let all = Lexer.tokenize "<?php /** doc */ $x;" in
        let has_doc =
          List.exists
            (fun (tok : Token.t) -> tok.Token.kind = Token.T_DOC_COMMENT)
            all
        in
        Alcotest.(check bool) "has doc comment" true has_doc);
    Alcotest.test_case "escaped quote in string" `Quick (fun () ->
        let got = lexemes "<?php 'it\\'s';" in
        Alcotest.(check (list string)) "tokens" [ "<?php"; "'it\\'s'"; ";" ] got);
    Alcotest.test_case "escaped dquote in string" `Quick (fun () ->
        let got = lexemes "<?php \"a\\\"b\";" in
        Alcotest.(check (list string)) "tokens" [ "<?php"; "\"a\\\"b\""; ";" ] got);
    Alcotest.test_case "quoted string inside a {$ region" `Quick (fun () ->
        let got = lexemes "<?php echo \"x{$_GET[\"h\"]}\";" in
        Alcotest.(check (list string))
          "tokens" [ "<?php"; "echo"; "\"x{$_GET[\"h\"]}\""; ";" ] got);
    Alcotest.test_case "newline in a {$ region's string counts" `Quick
      (fun () ->
        let tokens = lex "<?php $a = \"{$b[\"x\ny\"]}\";\n$c;" in
        let c_line =
          (List.find (fun (tok : Token.t) -> tok.Token.lexeme = "$c") tokens)
            .Token.line
        in
        Alcotest.(check int) "line of $c" 3 c_line);
    Alcotest.test_case "unclosed {$ region lexes as plain text" `Quick
      (fun () ->
        let got = lexemes "<?php echo \"x{$a\";" in
        Alcotest.(check (list string))
          "tokens" [ "<?php"; "echo"; "\"x{$a\""; ";" ] got);
    Alcotest.test_case "unterminated string raises" `Quick (fun () ->
        Alcotest.check_raises "error"
          (Lexer.Error ("unterminated single-quoted string", 1))
          (fun () -> ignore (lex "<?php 'oops")));
    Alcotest.test_case "unterminated block comment raises" `Quick (fun () ->
        Alcotest.check_raises "error"
          (Lexer.Error ("unterminated block comment", 1))
          (fun () -> ignore (lex "<?php /* oops")));
    Alcotest.test_case "unexpected char raises" `Quick (fun () ->
        try
          ignore (lex "<?php `cmd`;");
          Alcotest.fail "expected Lexer.Error"
        with Lexer.Error (_, _) -> ());
    Alcotest.test_case "html before open tag" `Quick (fun () ->
        let tokens = lex "<html><?php $x;" in
        match tokens with
        | first :: _ ->
            Alcotest.(check string) "first kind" "T_INLINE_HTML"
              (Token.name first.Token.kind)
        | [] -> Alcotest.fail "no tokens");
    Alcotest.test_case "token_name mirrors PHP" `Quick (fun () ->
        Alcotest.(check string) "variable" "T_VARIABLE"
          (Token.name Token.T_VARIABLE);
        Alcotest.(check string) "paamayim"
          "T_DOUBLE_COLON" (Token.name Token.T_DOUBLE_COLON);
        Alcotest.(check string) "constant string" "T_CONSTANT_ENCAPSED_STRING"
          (Token.name Token.T_CONSTANT_STRING));
    Alcotest.test_case "keyword lookup" `Quick (fun () ->
        Alcotest.(check bool) "foreach" true
          (Token.keyword_kind "FOREACH" = Some Token.T_FOREACH);
        Alcotest.(check bool) "not a keyword" true
          (Token.keyword_kind "foo" = None));
    Alcotest.test_case "close tag eats one newline" `Quick (fun () ->
        let tokens = lex "<?php ?>\nhtml" in
        let html =
          List.find_map
            (fun (tok : Token.t) ->
              if tok.Token.kind = Token.T_INLINE_HTML then Some tok.Token.lexeme
              else None)
            tokens
        in
        Alcotest.(check (option string)) "html content" (Some "html") html);
    Alcotest.test_case "recurring lexemes are interned" `Quick (fun () ->
        (* every repeat of an ident/keyword/variable/whitespace lexeme must
           return the retained first occurrence: physical equality within a
           file, and the lexer.intern.hits counter records each avoided
           allocation *)
        let src = "<?php echo $x; echo $x; echo $x;" in
        Obs.set_enabled true;
        Obs.reset ();
        let tokens = Lexer.tokenize src in
        let snap = Obs.snapshot () in
        Obs.set_enabled false;
        let hits =
          match List.assoc_opt "lexer.intern.hits" snap.Obs.sn_counters with
          | Some n -> n
          | None -> 0
        in
        (* 2 extra "echo", 2 "$x", repeated single-space whitespace: >= 4 *)
        Alcotest.(check bool) "intern hits recorded" true (hits >= 4);
        let lexemes_of kind =
          List.filter_map
            (fun (t : Token.t) ->
              if t.Token.kind = kind then Some t.Token.lexeme else None)
            tokens
        in
        (match lexemes_of Token.T_ECHO with
        | first :: rest ->
            List.iter
              (fun l ->
                Alcotest.(check bool) "echo shares one allocation" true
                  (l == first))
              rest
        | [] -> Alcotest.fail "no echo tokens");
        match lexemes_of Token.T_VARIABLE with
        | first :: rest ->
            List.iter
              (fun l ->
                Alcotest.(check bool) "$x shares one allocation" true
                  (l == first))
              rest
        | [] -> Alcotest.fail "no variable tokens");
  ]

(* heredoc/nowdoc, <?= and ?? — the PHP front-end gap regressions *)
let frontend_cases =
  [
    check_kinds "null coalescing operator" "<?php $a ?? $b;"
      [ t; Token.T_VARIABLE; Token.T_COALESCE; Token.T_VARIABLE; Token.Punct ];
    check_kinds "ternary hook is still punct" "<?php $a ? $b : $c;"
      [ t; Token.T_VARIABLE; Token.Punct; Token.T_VARIABLE; Token.Punct;
        Token.T_VARIABLE; Token.Punct ];
    check_kinds "short echo tag" "<?= $x; ?>"
      [ Token.T_OPEN_TAG_WITH_ECHO; Token.T_VARIABLE; Token.Punct;
        Token.T_CLOSE_TAG ];
    Alcotest.test_case "heredoc lexeme is the raw body" `Quick (fun () ->
        let tokens = lex "<?php $a = <<<EOT\nsay \"hi\" $name\nEOT;\n" in
        let body =
          List.find_map
            (fun (tok : Token.t) ->
              if tok.Token.kind = Token.T_HEREDOC then Some tok.Token.lexeme
              else None)
            tokens
        in
        Alcotest.(check (option string)) "body" (Some "say \"hi\" $name") body);
    Alcotest.test_case "double-quoted label is a heredoc" `Quick (fun () ->
        let tokens = lex "<?php $a = <<<\"EOT\"\nbody\nEOT;\n" in
        let kinds =
          List.filter
            (fun (tok : Token.t) -> tok.Token.kind = Token.T_HEREDOC)
            tokens
        in
        Alcotest.(check int) "one heredoc" 1 (List.length kinds));
    Alcotest.test_case "nowdoc keeps $ verbatim" `Quick (fun () ->
        let tokens = lex "<?php $a = <<<'EOT'\nraw $x body\nEOT;\n" in
        let body =
          List.find_map
            (fun (tok : Token.t) ->
              if tok.Token.kind = Token.T_NOWDOC then Some tok.Token.lexeme
              else None)
            tokens
        in
        Alcotest.(check (option string)) "body" (Some "raw $x body") body);
    Alcotest.test_case "heredoc advances line numbers" `Quick (fun () ->
        let tokens = lex "<?php $a = <<<EOT\nl1\nl2\nEOT;\n$b;" in
        let b_line =
          List.find_map
            (fun (tok : Token.t) ->
              if tok.Token.lexeme = "$b" then Some tok.Token.line else None)
            tokens
        in
        Alcotest.(check (option int)) "line of $b" (Some 5) b_line);
    Alcotest.test_case "unterminated heredoc raises" `Quick (fun () ->
        try
          ignore (lex "<?php $a = <<<EOT\nno close\n");
          Alcotest.fail "expected Lexer.Error"
        with Lexer.Error (_, _) -> ());
  ]

(* Table-driven cases: every entry of the lexer's lookup tables, in every
   case the table promises, plus the end-of-input edges of its probes. *)
let mixed_case w =
  String.mapi
    (fun i c -> if i mod 2 = 0 then Char.uppercase_ascii c else c)
    w

let lex_one src =
  match lex src with
  | [ _open; tok; _eof ] -> tok
  | toks ->
      Alcotest.failf "%S: expected one token, got %d" src
        (List.length toks - 2)

let check_token src (kind, lexeme) =
  let tok = lex_one src in
  Alcotest.(check (pair string string))
    src
    (Token.name kind, lexeme)
    (Token.name tok.Token.kind, tok.Token.lexeme)

let table_cases =
  [
    Alcotest.test_case "every keyword in every case" `Quick (fun () ->
        List.iter
          (fun (w, kind) ->
            List.iter
              (fun w ->
                check_token ("<?php " ^ w) (kind, w);
                Alcotest.(check bool)
                  ("keyword_kind " ^ w) true
                  (Token.keyword_kind w = Some kind))
              [ w; String.uppercase_ascii w; mixed_case w ])
          Token.keywords);
    Alcotest.test_case "identifiers extending a keyword" `Quick (fun () ->
        List.iter
          (fun w ->
            check_token ("<?php " ^ w) (Token.T_STRING, w);
            Alcotest.(check bool) ("keyword_kind " ^ w) true
              (Token.keyword_kind w = None))
          [ "returned"; "classes"; "include_once2"; "iff"; "ECHOES";
            "a"; "_"; "require_onces" ]);
    Alcotest.test_case "every multi-character operator" `Quick (fun () ->
        List.iter
          (fun (op, kind) -> check_token ("<?php " ^ op) (kind, op))
          (Lexer.two_char_ops
          @ [ ("===", Token.T_IS_IDENTICAL); ("!==", Token.T_IS_NOT_IDENTICAL);
              ("?>", Token.T_CLOSE_TAG) ]);
        check_token "<?php <<<EOT\nbody\nEOT" (Token.T_HEREDOC, "body"));
    Alcotest.test_case "casts in any case, with inner blanks" `Quick (fun () ->
        List.iter
          (fun (src, kind) -> check_token ("<?php " ^ src) (kind, src))
          [ ("( INT )", Token.T_INT_CAST);
            ("(Boolean)", Token.T_BOOL_CAST);
            ("(\tDouble )", Token.T_FLOAT_CAST);
            ("(REAL)", Token.T_FLOAT_CAST);
            ("(  sTrInG)", Token.T_STRING_CAST);
            ("(Array)", Token.T_ARRAY_CAST);
            ("(integer)", Token.T_INT_CAST);
            ("( bool\t)", Token.T_BOOL_CAST) ]);
    Alcotest.test_case "one-byte operator as the last byte" `Quick (fun () ->
        String.iter
          (fun c ->
            let src = "<?php $a" ^ String.make 1 c in
            match List.rev (lex src) with
            | eof :: last :: _ ->
                Alcotest.(check (pair string string))
                  src
                  ("PUNCT", String.make 1 c)
                  (Token.name last.Token.kind, last.Token.lexeme);
                Alcotest.(check string)
                  "eof" "T_EOF" (Token.name eof.Token.kind)
            | _ -> Alcotest.fail src)
          ";,(){}[]=+-*/%.<>!?:&@|^~$");
    Alcotest.test_case "probes stop at the end of input" `Quick (fun () ->
        List.iter
          (fun (src, want) ->
            Alcotest.(check (list string)) src want (lexemes src))
          [ ("<?php 1e", [ "<?php"; "1"; "e" ]);
            ("<?php 1e+", [ "<?php"; "1"; "e"; "+" ]);
            ("<?php 0x", [ "<?php"; "0"; "x" ]);
            ("<?php 1.", [ "<?php"; "1"; "." ]);
            ("<?php ( int", [ "<?php"; "("; "int" ]);
            ("<?php ?", [ "<?php"; "?" ]);
            ("<?", [ "<?" ]);
            ("<?p", [ "<?"; "p" ]) ]);
  ]

let () =
  Alcotest.run "lexer"
    [ ("token kinds", cases);
      ("numeric literals", number_cases);
      ("positions and edge cases", line_cases);
      ("front-end gaps (heredoc, <?=, ??)", frontend_cases);
      ("lookup tables", table_cases) ]
