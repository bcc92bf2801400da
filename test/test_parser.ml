(** Parser unit tests: statement/expression coverage, PHP operator
    precedence, string interpolation expansion, class parsing and error
    reporting. *)

open Phplang

let parse src = Parser.parse_source ~file:"t.php" src
let pe src = Parser.expr_of_string src

(* compare via the printer so failures are readable *)
let expr_str = Alcotest.testable Fmt.string String.equal

let check_expr name src expected =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.check expr_str name expected (Printer.expr_to_string (pe src)))

let check_stmt name src expected =
  Alcotest.test_case name `Quick (fun () ->
      match parse ("<?php " ^ src) with
      | [ stmt ] ->
          Alcotest.check expr_str name expected
            (String.trim (Printer.stmt_to_string stmt))
      | stmts ->
          Alcotest.failf "%s: expected 1 statement, got %d" name
            (List.length stmts))

let precedence_cases =
  [
    (* PHP's classic low-precedence logical keywords: `$a = $b or die()`
       parses as `($a = $b) or die()` *)
    Alcotest.test_case "assignment binds tighter than `or`" `Quick (fun () ->
        match (pe "$a = $b or exit").Ast.e with
        | Ast.Bin (Ast.BoolOr, { Ast.e = Ast.Assign _; _ }, { Ast.e = Ast.Exit None; _ }) ->
            ()
        | _ -> Alcotest.fail "expected (assign) or (exit)");
    Alcotest.test_case "assignment binds tighter than `and`" `Quick (fun () ->
        match (pe "$ok = f() and g()").Ast.e with
        | Ast.Bin (Ast.BoolAnd, { Ast.e = Ast.Assign _; _ }, { Ast.e = Ast.Call ("g", []); _ }) ->
            ()
        | _ -> Alcotest.fail "expected (assign) and (call)");
    Alcotest.test_case "|| binds tighter than assignment" `Quick (fun () ->
        match (pe "$a = $b || $c").Ast.e with
        | Ast.Assign (_, { Ast.e = Ast.Bin (Ast.BoolOr, _, _); _ }) -> ()
        | _ -> Alcotest.fail "expected assign of (or)");
    check_expr "concat binds tighter than comparison" "$a . $b == $c"
      "$a . $b == $c";
    check_expr "mul before add" "1 + 2 * 3" "1 + 2 * 3";
    check_expr "explicit parens preserved where needed" "(1 + 2) * 3"
      "(1 + 2) * 3";
    check_expr "assignment is right-associative" "$a = $b = 1" "$a = $b = 1";
    check_expr "ternary" "$a ? 1 : 2" "$a ? 1 : 2";
    check_expr "elvis" "$a ?: 2" "$a ?: 2";
    check_expr "boolean and/or precedence" "$a || $b && $c" "$a || $b && $c";
    check_expr "not binds tight" "!$a && $b" "!$a && $b";
    check_expr "unary minus" "-$a + $b" "-$a + $b";
    check_expr "postfix chain" "$a->b->c" "$a->b->c";
    check_expr "method then index" "$a->b('x')[0]" "$a->b('x')[0]";
    check_expr "cast then concat" "(int) $a . $b" "(int) $a . $b";
    check_expr "silence operator" "@$a" "@$a";
    check_expr "array get on call result" "f()[1]" "f()[1]";
  ]

let check_parses name src =
  Alcotest.test_case name `Quick (fun () -> ignore (parse src))

let ast_cases =
  [
    check_stmt "echo multiple" "echo $a, $b;" "echo $a, $b;";
    check_stmt "if elseif else" "if ($a) { f(); } elseif ($b) { g(); } else { h(); }"
      "if ($a) {\n    f();\n} elseif ($b) {\n    g();\n} else {\n    h();\n}";
    check_stmt "else-if normalized to elseif"
      "if ($a) { f(); } else if ($b) { g(); }"
      "if ($a) {\n    f();\n} elseif ($b) {\n    g();\n}";
    check_stmt "while" "while ($a) { f(); }" "while ($a) {\n    f();\n}";
    check_stmt "do while" "do { f(); } while ($a);"
      "do {\n    f();\n} while ($a);";
    check_stmt "for" "for ($i = 0; $i < 5; $i++) { f(); }"
      "for ($i = 0; $i < 5; $i++) {\n    f();\n}";
    check_stmt "foreach value" "foreach ($a as $v) { f(); }"
      "foreach ($a as $v) {\n    f();\n}";
    check_stmt "foreach key value" "foreach ($a as $k => $v) { f(); }"
      "foreach ($a as $k => $v) {\n    f();\n}";
    check_stmt "global" "global $wpdb, $post;" "global $wpdb, $post;";
    check_stmt "static vars" "static $n = 0;" "static $n = 0;";
    check_stmt "unset" "unset($a, $b);" "unset($a, $b);";
    check_stmt "return value" "return $a . $b;" "return $a . $b;";
    check_stmt "throw" "throw new Exception('x');" "throw new Exception('x');";
    check_stmt "single-stmt if body" "if ($a) f();" "if ($a) {\n    f();\n}";
    check_parses "switch with cases and default"
      "<?php switch ($a) { case 1: f(); break; case 2: g(); break; default: h(); }";
    check_parses "try catch" "<?php try { f(); } catch (Exception $e) { g(); }";
    check_parses "closure with use"
      "<?php $f = function($a) use ($b, &$c) { return $a; };";
    check_parses "list assignment" "<?php list($a, , $b) = f();";
    check_parses "include family"
      "<?php include 'a.php'; include_once 'b.php'; require 'c.php'; require_once 'd.php';";
    check_parses "exit variants" "<?php exit; exit(); exit(1); die('x');";
    check_parses "by-ref param and call" "<?php function f(&$x) {} f(&$y);";
    check_parses "default params" "<?php function f($a = 1, $b = array()) {}";
    check_parses "type-hinted param" "<?php function f(WP_Widget $w, array $a) {}";
    check_parses "reference assignment" "<?php $a =& $b;";
    check_parses "nested function declarations"
      "<?php function outer() { function inner() { return 1; } }";
    check_parses "statement ends at close tag" "<?php echo $a ?>";
  ]

let interp_cases =
  [
    Alcotest.test_case "simple $var interpolation" `Quick (fun () ->
        match (pe "\"a $x b\"").Ast.e with
        | Ast.Interp [ Ast.ILit "a "; Ast.IExpr { Ast.e = Ast.Var "$x"; _ };
                       Ast.ILit " b" ] ->
            ()
        | _ -> Alcotest.fail "unexpected interp structure");
    Alcotest.test_case "property interpolation" `Quick (fun () ->
        match (pe "\"$obj->name\"").Ast.e with
        | Ast.Interp [ Ast.IExpr { Ast.e = Ast.Prop ({ Ast.e = Ast.Var "$obj"; _ }, "name"); _ } ] ->
            ()
        | _ -> Alcotest.fail "unexpected structure");
    Alcotest.test_case "array key interpolation" `Quick (fun () ->
        match (pe "\"$a[key]\"").Ast.e with
        | Ast.Interp
            [ Ast.IExpr
                { Ast.e = Ast.ArrayGet ({ Ast.e = Ast.Var "$a"; _ },
                                        Some { Ast.e = Ast.Str "key"; _ }); _ } ] ->
            ()
        | _ -> Alcotest.fail "unexpected structure");
    Alcotest.test_case "braced expression interpolation" `Quick (fun () ->
        match (pe "\"x{$wpdb->prefix}y\"").Ast.e with
        | Ast.Interp
            [ Ast.ILit "x";
              Ast.IExpr { Ast.e = Ast.Prop ({ Ast.e = Ast.Var "$wpdb"; _ }, "prefix"); _ };
              Ast.ILit "y" ] ->
            ()
        | _ -> Alcotest.fail "unexpected structure");
    Alcotest.test_case "outer quote inside a braced expression" `Quick
      (fun () ->
        Alcotest.(check bool)
          "same AST as single-quoted key" true
          (Ast.equal_program
             (parse "<?php echo \"x{$_GET[\"h\"]}\";")
             (parse "<?php echo \"x{$_GET['h']}\";")));
    Alcotest.test_case "unclosed braced expression" `Quick (fun () ->
        match parse "<?php echo \"x{$a\";" with
        | _ -> Alcotest.fail "expected Parse_error"
        | exception Parser.Parse_error (msg, _) ->
            Alcotest.(check string) "message" "unterminated {$ in string" msg);
    Alcotest.test_case "no interpolation folds to Str" `Quick (fun () ->
        match (pe "\"plain\"").Ast.e with
        | Ast.Str "plain" -> ()
        | _ -> Alcotest.fail "expected Str");
    Alcotest.test_case "escapes decoded" `Quick (fun () ->
        match (pe "\"a\\n\\t\\\"\\$b\"").Ast.e with
        | Ast.Str "a\n\t\"$b" -> ()
        | _ -> Alcotest.fail "expected decoded Str");
    Alcotest.test_case "single-quote escapes" `Quick (fun () ->
        match (pe "'it\\'s \\\\'").Ast.e with
        | Ast.Str "it's \\" -> ()
        | _ -> Alcotest.fail "expected decoded Str");
  ]

let class_cases =
  [
    Alcotest.test_case "class structure" `Quick (fun () ->
        let src =
          "<?php class A extends B implements C, D {\n\
           const K = 1;\n\
           public $p = 'x';\n\
           private static $q;\n\
           public function m($a) { return $a; }\n\
           protected static function n() {}\n\
           }"
        in
        match parse src with
        | [ { Ast.s = Ast.ClassDef c; _ } ] ->
            Alcotest.(check string) "name" "A" c.Ast.c_name;
            Alcotest.(check (option string)) "parent" (Some "B") c.Ast.c_parent;
            Alcotest.(check (list string)) "implements" [ "C"; "D" ] c.Ast.c_implements;
            Alcotest.(check int) "consts" 1 (List.length c.Ast.c_consts);
            Alcotest.(check int) "props" 2 (List.length c.Ast.c_props);
            Alcotest.(check int) "methods" 2 (List.length c.Ast.c_methods);
            let m = List.hd c.Ast.c_methods in
            Alcotest.(check bool) "m not static" false m.Ast.m_static;
            let n = List.nth c.Ast.c_methods 1 in
            Alcotest.(check bool) "n static" true n.Ast.m_static
        | _ -> Alcotest.fail "expected a single class");
    Alcotest.test_case "var keyword means public" `Quick (fun () ->
        match parse "<?php class A { var $x; }" with
        | [ { Ast.s = Ast.ClassDef c; _ } ] ->
            let p = List.hd c.Ast.c_props in
            Alcotest.(check bool) "public" true (p.Ast.pr_vis = Ast.Public)
        | _ -> Alcotest.fail "expected class");
    Alcotest.test_case "interface methods have empty bodies" `Quick (fun () ->
        match parse "<?php interface I { public function f($a); }" with
        | [ { Ast.s = Ast.ClassDef c; _ } ] ->
            let m = List.hd c.Ast.c_methods in
            Alcotest.(check int) "empty body" 0 (List.length m.Ast.m_func.Ast.f_body)
        | _ -> Alcotest.fail "expected interface-as-class");
    Alcotest.test_case "new without parens" `Quick (fun () ->
        match (pe "new Foo").Ast.e with
        | Ast.New ("Foo", []) -> ()
        | _ -> Alcotest.fail "expected New");
  ]

let error_cases =
  [
    Alcotest.test_case "missing semicolon" `Quick (fun () ->
        try
          ignore (parse "<?php $a = 1 $b = 2;");
          Alcotest.fail "expected Parse_error"
        with Parser.Parse_error (_, _) -> ());
    Alcotest.test_case "unclosed brace" `Quick (fun () ->
        try
          ignore (parse "<?php function f() { echo 1;");
          Alcotest.fail "expected Parse_error"
        with Parser.Parse_error (_, _) -> ());
    Alcotest.test_case "error carries position" `Quick (fun () ->
        try ignore (parse "<?php\n\n$a = ;")
        with Parser.Parse_error (_, pos) ->
          Alcotest.(check int) "line" 3 pos.Ast.line);
    Alcotest.test_case "positions recorded on statements" `Quick (fun () ->
        match parse "<?php\necho $a;\n$b = 1;" with
        | [ s1; s2 ] ->
            Alcotest.(check int) "echo line" 2 s1.Ast.spos.Ast.line;
            Alcotest.(check int) "assign line" 3 s2.Ast.spos.Ast.line
        | _ -> Alcotest.fail "expected 2 statements");
    (* expr_of_string lexes its whole text, as it did when it lexed before
       parsing, so text after the expression can still fail to lex *)
    Alcotest.test_case "expr_of_string lexes past the expression" `Quick
      (fun () ->
        match pe "$a + 1; 'open" with
        | _ -> Alcotest.fail "expected Lexer.Error"
        | exception Lexer.Error (msg, _) ->
            Alcotest.(check string) "message"
              "unterminated single-quoted string" msg);
  ]

(* heredoc/nowdoc, <?= and ?? — the PHP front-end gap regressions *)
let frontend_cases =
  [
    check_expr "null coalescing round-trips" "$a ?? $b" "$a ?? $b";
    Alcotest.test_case "?? is right-associative" `Quick (fun () ->
        match (pe "$a ?? $b ?? $c").Ast.e with
        | Ast.Bin
            ( Ast.Coalesce,
              { Ast.e = Ast.Var "$a"; _ },
              { Ast.e = Ast.Bin (Ast.Coalesce, _, _); _ } ) ->
            ()
        | _ -> Alcotest.fail "expected $a ?? ($b ?? $c)");
    check_expr "left-nested ?? keeps its parens" "($a ?? $b) ?? $c"
      "($a ?? $b) ?? $c";
    Alcotest.test_case "|| binds tighter than ??" `Quick (fun () ->
        match (pe "$a || $b ?? $c").Ast.e with
        | Ast.Bin
            ( Ast.Coalesce,
              { Ast.e = Ast.Bin (Ast.BoolOr, _, _); _ },
              { Ast.e = Ast.Var "$c"; _ } ) ->
            ()
        | _ -> Alcotest.fail "expected ($a || $b) ?? $c");
    Alcotest.test_case "?? binds tighter than ternary" `Quick (fun () ->
        match (pe "$a ?? $b ? 'x' : 'y'").Ast.e with
        | Ast.Ternary ({ Ast.e = Ast.Bin (Ast.Coalesce, _, _); _ }, Some _, _) ->
            ()
        | _ -> Alcotest.fail "expected ($a ?? $b) ? 'x' : 'y'");
    check_expr "elvis still parses next to ??" "$a ?: $b ?? $c"
      "$a ?: $b ?? $c";
    Alcotest.test_case "heredoc interpolates like a dquoted body" `Quick
      (fun () ->
        match parse "<?php $a = <<<EOT\nhello $n!\nEOT;\n" with
        | [ { Ast.s =
                Ast.Expr
                  { Ast.e =
                      Ast.Assign
                        ( _,
                          { Ast.e =
                              Ast.Interp
                                [ Ast.ILit "hello ";
                                  Ast.IExpr { Ast.e = Ast.Var "$n"; _ };
                                  Ast.ILit "!" ];
                            _ } );
                    _ };
              _ } ] ->
            ()
        | _ -> Alcotest.fail "unexpected heredoc structure");
    Alcotest.test_case "plain heredoc folds to Str" `Quick (fun () ->
        match parse "<?php $a = <<<EOT\njust text\nEOT;\n" with
        | [ { Ast.s =
                Ast.Expr
                  { Ast.e = Ast.Assign (_, { Ast.e = Ast.Str "just text"; _ });
                    _ };
              _ } ] ->
            ()
        | _ -> Alcotest.fail "expected Str");
    Alcotest.test_case "nowdoc never interpolates" `Quick (fun () ->
        match parse "<?php $a = <<<'EOT'\nraw $x\nEOT;\n" with
        | [ { Ast.s =
                Ast.Expr
                  { Ast.e = Ast.Assign (_, { Ast.e = Ast.Str "raw $x"; _ }); _ };
              _ } ] ->
            ()
        | _ -> Alcotest.fail "expected verbatim Str");
    Alcotest.test_case "<?= is an echo statement" `Quick (fun () ->
        (* the trailing ?> contributes an (empty) inline-html statement *)
        match parse "<?= $x ?>" with
        | { Ast.s = Ast.Echo [ { Ast.e = Ast.Var "$x"; _ } ]; _ } :: rest
          when List.for_all
                 (fun (s : Ast.stmt) ->
                   match s.Ast.s with Ast.InlineHtml _ -> true | _ -> false)
                 rest ->
            ()
        | _ -> Alcotest.fail "expected echo of $x");
    Alcotest.test_case "<?= after html keeps both" `Quick (fun () ->
        match parse "<b><?= $x; ?></b>" with
        | [ { Ast.s = Ast.InlineHtml "<b>"; _ };
            { Ast.s = Ast.Echo [ { Ast.e = Ast.Var "$x"; _ } ]; _ };
            { Ast.s = Ast.InlineHtml "</b>"; _ } ] ->
            ()
        | _ -> Alcotest.fail "expected html / echo / html");
  ]

(* The shared child iterators: one program holding every [expr_desc] and
   [stmt_desc] constructor, walked in pre-order through [Ast.iter_expr] /
   [Ast.iter_stmt].  Include-target order and Pixy's first-construct
   failure reason both follow this sequence. *)
let every_constructor =
  "<?php\n\
   function f($p = C::K) { global $g; static $s = 1; return $p; }\n\
   class K { const C = 2; public $q = false; function m($r = null) { throw $r; } }\n\
   if ($a) { echo \"x{$b}\"; } elseif (true) { ; } else { { unset($c[0]); } }\n\
   while ($w) { break; }\n\
   do { continue; } while (0.5);\n\
   for ($i = 0; $i < 3; $i++) { print g(1); }\n\
   foreach ($arr as $k => $v) { $v =& $k; }\n\
   switch ($m) { case $_GET['a']: exit(1); default: $o->p; }\n\
   try { $x .= $o->m(new D()); } catch (E $e) { list($l, , $n) = array(1 => 'z', -$y); }\n\
   $t = isset($u) ? (int) D::$sp : (empty($z) ?: PHP_EOL);\n\
   include 'inc.php';\n\
   $cl = function ($cp = 3) use ($a) { return S::call(); };\n\
   ?>html"

let expr_label (e : Ast.expr) =
  match e.Ast.e with
  | Ast.Null -> "Null"
  | Ast.True -> "True"
  | Ast.False -> "False"
  | Ast.Int n -> Printf.sprintf "Int %d" n
  | Ast.Float f -> Printf.sprintf "Float %g" f
  | Ast.Str s -> "Str " ^ s
  | Ast.Interp _ -> "Interp"
  | Ast.Var v -> "Var " ^ v
  | Ast.ArrayGet _ -> "ArrayGet"
  | Ast.Prop (_, p) -> "Prop " ^ p
  | Ast.StaticProp (c, p) -> Printf.sprintf "StaticProp %s::%s" c p
  | Ast.ClassConst (c, k) -> Printf.sprintf "ClassConst %s::%s" c k
  | Ast.Const c -> "Const " ^ c
  | Ast.ArrayLit _ -> "ArrayLit"
  | Ast.Call (f, _) -> "Call " ^ f
  | Ast.MethodCall (_, m, _) -> "MethodCall " ^ m
  | Ast.StaticCall (c, m, _) -> Printf.sprintf "StaticCall %s::%s" c m
  | Ast.New (c, _) -> "New " ^ c
  | Ast.Assign _ -> "Assign"
  | Ast.AssignRef _ -> "AssignRef"
  | Ast.OpAssign _ -> "OpAssign"
  | Ast.Bin _ -> "Bin"
  | Ast.Un _ -> "Un"
  | Ast.Ternary _ -> "Ternary"
  | Ast.CastE _ -> "CastE"
  | Ast.Isset _ -> "Isset"
  | Ast.EmptyE _ -> "EmptyE"
  | Ast.PrintE _ -> "PrintE"
  | Ast.Exit _ -> "Exit"
  | Ast.IncludeE _ -> "IncludeE"
  | Ast.Closure _ -> "Closure"
  | Ast.ListAssign _ -> "ListAssign"

let stmt_label (s : Ast.stmt) =
  match s.Ast.s with
  | Ast.Expr _ -> "Expr"
  | Ast.Echo _ -> "Echo"
  | Ast.If _ -> "If"
  | Ast.While _ -> "While"
  | Ast.DoWhile _ -> "DoWhile"
  | Ast.For _ -> "For"
  | Ast.Foreach _ -> "Foreach"
  | Ast.Switch _ -> "Switch"
  | Ast.Break -> "Break"
  | Ast.Continue -> "Continue"
  | Ast.Return _ -> "Return"
  | Ast.Global _ -> "Global"
  | Ast.StaticVar _ -> "StaticVar"
  | Ast.Unset _ -> "Unset"
  | Ast.Block _ -> "Block"
  | Ast.FuncDef f -> "FuncDef " ^ f.Ast.f_name
  | Ast.ClassDef c -> "ClassDef " ^ c.Ast.c_name
  | Ast.InlineHtml _ -> "InlineHtml"
  | Ast.Throw _ -> "Throw"
  | Ast.TryCatch _ -> "TryCatch"
  | Ast.Nop -> "Nop"

let pre_order prog =
  let acc = ref [] in
  let rec expr e =
    acc := expr_label e :: !acc;
    Ast.iter_expr ~expr ~stmt e
  and stmt s =
    acc := ("S " ^ stmt_label s) :: !acc;
    Ast.iter_stmt ~expr ~stmt s
  in
  List.iter stmt prog;
  List.rev !acc

let expected_pre_order =
  [ "S FuncDef f"; "ClassConst C::K"; "S Global"; "S StaticVar"; "Int 1";
    "S Return"; "Var $p";
    "S ClassDef K"; "Int 2"; "False"; "Null"; "S Throw"; "Var $r";
    "S If"; "Var $a"; "S Echo"; "Interp"; "Var $b"; "True"; "S Nop";
    "S Block"; "S Unset"; "ArrayGet"; "Var $c"; "Int 0";
    "S While"; "Var $w"; "S Break";
    "S DoWhile"; "S Continue"; "Float 0.5";
    "S For"; "Assign"; "Var $i"; "Int 0"; "Bin"; "Var $i"; "Int 3"; "Un";
    "Var $i"; "S Expr"; "PrintE"; "Call g"; "Int 1";
    "S Foreach"; "Var $arr"; "Var $k"; "Var $v"; "S Expr"; "AssignRef";
    "Var $v"; "Var $k";
    "S Switch"; "Var $m"; "ArrayGet"; "Var $_GET"; "Str a"; "S Expr"; "Exit";
    "Int 1"; "S Expr"; "Prop p"; "Var $o";
    "S TryCatch"; "S Expr"; "OpAssign"; "Var $x"; "MethodCall m"; "Var $o";
    "New D"; "S Expr"; "ListAssign"; "Var $l"; "Var $n"; "ArrayLit"; "Int 1";
    "Str z"; "Un"; "Var $y";
    "S Expr"; "Assign"; "Var $t"; "Ternary"; "Isset"; "Var $u"; "CastE";
    "StaticProp D::$sp"; "Ternary"; "EmptyE"; "Var $z"; "Const PHP_EOL";
    "S Expr"; "IncludeE"; "Str inc.php";
    "S Expr"; "Assign"; "Var $cl"; "Closure"; "Int 3"; "S Return";
    "StaticCall S::call";
    "S InlineHtml" ]

let all_constructors =
  [ "Null"; "True"; "False"; "Int"; "Float"; "Str"; "Interp"; "Var";
    "ArrayGet"; "Prop"; "StaticProp"; "ClassConst"; "Const"; "ArrayLit";
    "Call"; "MethodCall"; "StaticCall"; "New"; "Assign"; "AssignRef";
    "OpAssign"; "Bin"; "Un"; "Ternary"; "CastE"; "Isset"; "EmptyE"; "PrintE";
    "Exit"; "IncludeE"; "Closure"; "ListAssign";
    "S Expr"; "S Echo"; "S If"; "S While"; "S DoWhile"; "S For"; "S Foreach";
    "S Switch"; "S Break"; "S Continue"; "S Return"; "S Global";
    "S StaticVar"; "S Unset"; "S Block"; "S FuncDef"; "S ClassDef";
    "S InlineHtml"; "S Throw"; "S TryCatch"; "S Nop" ]

let children_cases =
  [
    Alcotest.test_case "pre-order over every constructor" `Quick (fun () ->
        Alcotest.(check (list string)) "sequence" expected_pre_order
          (pre_order (parse every_constructor)));
    Alcotest.test_case "the program holds every constructor" `Quick
      (fun () ->
        let labels = pre_order (parse every_constructor) in
        let constructor l =
          (* the label up to its detail: "Var $x" -> "Var", "S FuncDef f"
             -> "S FuncDef" *)
          match String.split_on_char ' ' l with
          | "S" :: c :: _ -> "S " ^ c
          | c :: _ -> c
          | [] -> l
        in
        List.iter
          (fun c ->
            if not (List.exists (fun l -> constructor l = c) labels) then
              Alcotest.failf "no %s in the program" c)
          all_constructors);
    Alcotest.test_case "program_size counts bodies, not closure bodies"
      `Quick (fun () ->
        Alcotest.(check int) "statements" 5
          (Ast.program_size
             (parse
                "<?php if ($a) { echo 1; } function f() { return 1; }\n\
                 $c = function () { return 2; };")));
  ]

let () =
  Alcotest.run "parser"
    [ ("precedence", precedence_cases);
      ("statements", ast_cases);
      ("interpolation", interp_cases);
      ("classes", class_cases);
      ("errors and positions", error_cases);
      ("front-end gaps (heredoc, <?=, ??)", frontend_cases);
      ("children", children_cases) ]
