(** Printer tests: hand-written round trips plus QCheck properties —
    [parse (print ast) = ast] on randomly generated ASTs, and printing is a
    fixpoint of parse∘print. *)

open Phplang

let parse src = Parser.parse_source ~file:"t.php" src
let print prog = Printer.program_to_string prog

let roundtrip_case name src =
  Alcotest.test_case name `Quick (fun () ->
      let prog = parse src in
      let printed = print prog in
      let prog2 = parse printed in
      if not (Ast.equal_program prog prog2) then
        Alcotest.failf "round trip failed:\n--- printed ---\n%s" printed)

let unit_cases =
  [
    roundtrip_case "quotes and escapes"
      "<?php $a = 'it\\'s'; $b = \"x\\\"y \\$z\"; echo $a . $b;";
    roundtrip_case "interpolation forms"
      "<?php echo \"a $x b $o->p c $arr[k] d {$w->prefix}tbl\";";
    roundtrip_case "control flow"
      "<?php if ($a) { f(); } elseif ($b) { g(); } else { h(); } while ($a) { break; } do { continue; } while ($b); for ($i = 0; $i < 3; $i++) { f(); } foreach ($xs as $k => $v) { g(); } switch ($m) { case 1: f(); break; default: g(); }";
    roundtrip_case "class with everything"
      "<?php class A extends B implements C { const K = 1; public $p = 'x'; private static $q; public function m($a = 1) { return $a; } }";
    roundtrip_case "closures" "<?php $f = function($a) use ($b, &$c) { return $a . $b; };";
    roundtrip_case "inline html" "<?php $a = 1; ?><div>static</div><?php echo $a;";
    roundtrip_case "unary fusion hazards" "<?php $a = - -$b; $c = --$d; $e = -$f--;";
    roundtrip_case "exit and print" "<?php print $a; exit('bye'); die;";
    roundtrip_case "reference assignment and list"
      "<?php $a =& $b; list($x, , $y) = f();";
    roundtrip_case "try catch throw"
      "<?php try { f(); } catch (Exception $e) { g(); } catch (Error $e2) { h(); } throw new Exception('x');";
    roundtrip_case "arrays" "<?php $a = array(1, 'k' => 2, f() => $x); $b = [1, 2];";
    roundtrip_case "statement without trailing semicolon before close tag"
      "<?php echo $a ?>";
  ]

(* ------------------------------------------------------------------ *)
(* QCheck AST generators                                              *)
(* ------------------------------------------------------------------ *)

open QCheck2

let var_pool = [| "$a"; "$b"; "$c"; "$row"; "$value"; "$wpdb" |]
let name_pool = [| "foo"; "bar_baz"; "render"; "get_data"; "process" |]
let prop_pool = [| "name"; "prefix"; "value" |]

let gen_var = Gen.map (fun i -> var_pool.(i)) (Gen.int_bound (Array.length var_pool - 1))
let gen_name = Gen.map (fun i -> name_pool.(i)) (Gen.int_bound (Array.length name_pool - 1))
let gen_prop = Gen.map (fun i -> prop_pool.(i)) (Gen.int_bound (Array.length prop_pool - 1))

(* strings exercising the escaper *)
let gen_str =
  Gen.oneofl
    [ "plain"; "it's"; "back\\slash"; "do$llar"; "qu\"ote"; "new\nline";
      "tab\there"; ""; "a{b}c" ]

let e d = Ast.mk_e d

let gen_expr : Ast.expr Gen.t =
  Gen.sized
    (Gen.fix (fun self n ->
         let leaf =
           Gen.oneof
             [ Gen.map (fun v -> e (Ast.Var v)) gen_var;
               Gen.map (fun s -> e (Ast.Str s)) gen_str;
               Gen.map (fun i -> e (Ast.Int i)) Gen.nat;
               Gen.oneofl [ e Ast.Null; e Ast.True; e Ast.False ];
               Gen.map (fun c -> e (Ast.Const (String.capitalize_ascii c))) gen_name ]
         in
         if n <= 0 then leaf
         else
           let sub = self (n / 2) in
           Gen.oneof
             [ leaf;
               Gen.map2 (fun a b -> e (Ast.Bin (Ast.Concat, a, b))) sub sub;
               Gen.map2 (fun a b -> e (Ast.Bin (Ast.Plus, a, b))) sub sub;
               Gen.map2 (fun a b -> e (Ast.Bin (Ast.Eq, a, b))) sub sub;
               Gen.map2 (fun a b -> e (Ast.Bin (Ast.BoolAnd, a, b))) sub sub;
               Gen.map (fun a -> e (Ast.Un (Ast.Not, a))) sub;
               Gen.map (fun a -> e (Ast.Un (Ast.Neg, a))) sub;
               Gen.map (fun a -> e (Ast.CastE (Ast.CastInt, a))) sub;
               Gen.map2 (fun f args -> e (Ast.Call (f, args))) gen_name
                 (Gen.list_size (Gen.int_bound 2) sub);
               Gen.map2 (fun a i -> e (Ast.ArrayGet (a, Some i)))
                 (Gen.map (fun v -> e (Ast.Var v)) gen_var)
                 sub;
               Gen.map2 (fun v p -> e (Ast.Prop (e (Ast.Var v), p))) gen_var gen_prop;
               Gen.map3 (fun v m args -> e (Ast.MethodCall (e (Ast.Var v), m, args)))
                 gen_var gen_name
                 (Gen.list_size (Gen.int_bound 2) sub);
               Gen.map3 (fun c t f -> e (Ast.Ternary (c, Some t, f))) sub sub sub;
               Gen.map2 (fun v rhs -> e (Ast.Assign (e (Ast.Var v), rhs))) gen_var sub;
               (* interpolated string: strict ILit/IExpr alternation with
                  PHP-valid ({$...}-rooted) expressions only, and no empty
                  literals, so re-parsing cannot merge or splice parts *)
               (let gen_rooted =
                  Gen.oneof
                    [ Gen.map (fun v -> e (Ast.Var v)) gen_var;
                      Gen.map2 (fun v p -> e (Ast.Prop (e (Ast.Var v), p)))
                        gen_var gen_prop;
                      Gen.map2
                        (fun v k ->
                          e (Ast.ArrayGet (e (Ast.Var v), Some (e (Ast.Str k)))))
                        gen_var gen_prop ]
                in
                Gen.map2
                  (fun x y ->
                    e (Ast.Interp [ Ast.ILit "q="; Ast.IExpr x; Ast.ILit "&r=";
                                    Ast.IExpr y ]))
                  gen_rooted gen_rooted) ]))

let s d = Ast.mk_s d

let gen_stmt : Ast.stmt Gen.t =
  Gen.sized
    (Gen.fix (fun self n ->
         let simple =
           Gen.oneof
             [ Gen.map (fun x -> s (Ast.Expr x)) gen_expr;
               Gen.map (fun xs -> s (Ast.Echo xs))
                 (Gen.list_size (Gen.int_range 1 2) gen_expr);
               Gen.map (fun v -> s (Ast.Global [ v ])) gen_var;
               Gen.map (fun v -> s (Ast.Unset [ e (Ast.Var v) ])) gen_var;
               Gen.map (fun x -> s (Ast.Return (Some x))) gen_expr ]
         in
         if n <= 0 then simple
         else
           let body = Gen.list_size (Gen.int_range 1 2) (self (n / 2)) in
           Gen.oneof
             [ simple;
               Gen.map2 (fun c b -> s (Ast.If ([ (c, b) ], None))) gen_expr body;
               Gen.map3 (fun c b1 b2 -> s (Ast.If ([ (c, b1) ], Some b2)))
                 gen_expr body body;
               Gen.map2 (fun c b -> s (Ast.While (c, b))) gen_expr body;
               Gen.map3 (fun subj v b ->
                   s (Ast.Foreach (subj, Ast.ForeachValue (e (Ast.Var v)), b)))
                 gen_expr gen_var body;
               Gen.map2 (fun name b ->
                   s (Ast.FuncDef
                        { Ast.f_name = name;
                          f_params = [ { Ast.p_name = "$arg"; p_default = None;
                                         p_by_ref = false; p_hint = None } ];
                          f_body = b; f_pos = Ast.dummy_pos }))
                 gen_name body ]))

let gen_program = Gen.list_size (Gen.int_range 1 6) gen_stmt

let print_program prog = Printer.program_to_string prog

let prop_roundtrip =
  Test.make ~name:"parse (print p) = p" ~count:150 ~print:print_program
    gen_program (fun prog ->
      let printed = print prog in
      match parse printed with
      | parsed -> Ast.equal_program prog parsed
      | exception _ -> false)

let prop_fixpoint =
  Test.make ~name:"print is a fixpoint of parse∘print" ~count:100
    ~print:print_program gen_program (fun prog ->
      let once = print prog in
      let twice = print (parse once) in
      String.equal once twice)

let prop_expr_roundtrip =
  Test.make ~name:"expr round trip" ~count:150
    ~print:(fun x -> Printer.expr_to_string x)
    gen_expr
    (fun x ->
      let printed = Printer.expr_to_string x in
      match Parser.expr_of_string printed with
      | parsed -> Ast.equal_expr x parsed
      | exception _ -> false)

let prop_size_positive =
  Test.make ~name:"program_size counts every statement" ~count:100
    ~print:print_program gen_program (fun prog ->
      Ast.program_size prog >= List.length prog)

(* [Loc.count] against its definition: split at newlines, drop the lines
   made only of spaces, tabs and carriage returns, count the rest *)
let loc_reference src =
  let is_blank line =
    String.for_all (fun c -> c = ' ' || c = '\t' || c = '\r') line
  in
  String.split_on_char '\n' src
  |> List.filter (fun l -> not (is_blank l))
  |> List.length

let prop_loc_count =
  Test.make ~name:"Loc.count matches the split-based definition" ~count:500
    ~print:String.escaped
    Gen.(
      oneof
        [ oneofl [ ""; "\n"; "\r"; "\t"; "\r\n"; " \t\r\n"; "a"; "a\nb";
                   "a\n"; "\n\na" ];
          string_size ~gen:(oneofl [ 'a'; ' '; '\t'; '\r'; '\n' ])
            (int_range 0 40) ])
    (fun src -> Loc.count src = loc_reference src)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_roundtrip; prop_fixpoint; prop_expr_roundtrip; prop_size_positive;
      prop_loc_count ]

let () =
  Alcotest.run "printer"
    [ ("hand-written round trips", unit_cases);
      ("qcheck properties", qcheck_cases) ]
