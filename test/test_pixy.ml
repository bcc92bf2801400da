(** Pixy baseline behaviour tests: flow-sensitive dataflow over the CFG,
    register_globals modelling, OOP failure policy and the
    called-functions-only limitation. *)

open Secflow

let analyze src = Pixy.analyze_source ~file:"t.php" ("<?php\n" ^ src)

let findings src =
  (analyze src).Report.findings
  |> List.map (fun (f : Report.finding) ->
         Printf.sprintf "%s@%d" (Vuln.kind_to_string f.Report.kind)
           (f.Report.sink_pos.Phplang.Ast.line - 1))
  |> List.sort compare

let expect name src expected =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check (list string)) name (List.sort compare expected) (findings src))

let dataflow_cases =
  [
    expect "direct superglobal" "echo $_GET['x'];" [ "XSS@1" ];
    expect "flow-sensitive: later overwrite kills taint"
      "$a = $_GET['x'];\n$a = 'safe';\necho $a;" [];
    expect "flow-sensitive: join at if-merge keeps taint"
      "if ($c) {\n$a = $_GET['x'];\n} else {\n$a = 'safe';\n}\necho $a;"
      [ "XSS@6" ];
    (* contrast with phpSAFE's sequential-branch semantics, which loses it *)
    expect "taint only on one path still reported"
      "$a = 'safe';\nif ($c) {\n$a = $_GET['x'];\n}\necho $a;" [ "XSS@5" ];
    expect "loop-carried taint reaches fixpoint"
      "$acc = '';\nwhile ($i < 3) {\n$acc .= $_GET['a'];\n$i = $i + 1;\n}\necho $acc;"
      [ "XSS@6" ];
    expect "switch cases join"
      "switch ($m) {\ncase 1:\n$a = $_GET['x'];\nbreak;\ndefault:\n$a = 'd';\n}\necho $a;"
      [ "XSS@8" ];
    expect "break exits the loop"
      "while ($c) {\n$a = $_GET['x'];\nbreak;\n}\necho $a;" [ "XSS@5" ];
    expect "sanitizer respected" "echo htmlspecialchars($_GET['x']);" [];
    expect "no revert modelling (2007-era)"
      "$a = htmlspecialchars($_GET['x']);\n$b = stripslashes($a);\necho $b;" [];
    expect "mysql source and sink"
      "$r = mysql_query('q');\n$row = mysql_fetch_assoc($r);\necho $row['c'];"
      [ "XSS@3" ];
    expect "SQLi sink" "$id = $_GET['id'];\nmysql_query(\"SELECT $id\");"
      [ "SQLi@2" ];
    expect "unknown function propagates (no WP profile)"
      "echo esc_html($_GET['x']);" [ "XSS@1" ];
    expect "exit terminates the path"
      "$a = $_GET['x'];\nexit;\necho $a;" [];
    expect "print and exit report tainted arguments only"
      "print 'hello';\nprint $_GET['x'];\nexit('bye');" [ "XSS@2" ];
  ]

let register_globals_cases =
  [
    expect "uninitialized global-scope read is attacker-controlled"
      "echo $page_title;" [ "XSS@1" ];
    expect "assigned variable is not flagged" "$t = 'x';\necho $t;" [];
    expect "maybe-uninitialized (one branch) still flagged"
      "if ($c) {\n$t = 'x';\n}\necho $t;" [ "XSS@4" ];
    expect "include does not define variables (per-file tool)"
      "include 'defaults.php';\necho $conf_title;" [ "XSS@2" ];
    expect "function locals are not register_globals candidates"
      "function f() {\necho $local;\n}\nf();" [];
    expect "global statement suppresses the uninit warning"
      "function f() {\nglobal $wp_version;\necho $wp_version;\n}\nf();" [];
    expect "unset variable is not re-seeded"
      "$a = 'x';\nunset($a);\necho $a;" [];
  ]

let interproc_cases =
  [
    expect "called function analyzed with argument taint"
      "function f($m) {\necho $m;\n}\nf($_GET['x']);" [ "XSS@2" ];
    expect "uncalled functions are NOT analyzed (paper §V.A)"
      "function hook() {\necho $_COOKIE['t'];\n}" [];
    expect "return value flows back"
      "function wrap($m) {\nreturn '<b>' . $m;\n}\necho wrap($_POST['x']);"
      [ "XSS@4" ];
    expect "memoized second call still fires new sink"
      "function f($m) {\necho $m;\n}\nf('clean');\nf($_GET['x']);" [ "XSS@2" ];
    expect "recursion terminates" "function f($a) {\necho $a;\nreturn f($a);\n}\nf($_GET['x']);"
      [ "XSS@2" ];
    (* the memo is keyed by the arguments' exact kinds: an {xss} call must
       not answer for a later {xss, sqli} one *)
    expect "memo keeps calls with different taint kinds apart"
      "function f($a) { return $a; }\n$y = addslashes($_GET['b']);\n\
       $z = $_GET['c'];\necho f($y);\nmysql_query(f($z));"
      [ "XSS@4"; "SQLi@5" ];
  ]

let oop_cases =
  [
    Alcotest.test_case "class declaration fails the file" `Quick (fun () ->
        let r = analyze "class W {\n}\necho $_GET['x'];" in
        Alcotest.(check int) "no findings" 0 (List.length r.Report.findings);
        Alcotest.(check int) "one failed file" 1
          (List.length (Report.failed_files r));
        Alcotest.(check int) "one error message" 1 r.Report.errors);
    Alcotest.test_case "method call fails the file" `Quick (fun () ->
        let r = analyze "$rows = $wpdb->get_results('q');" in
        Alcotest.(check int) "failed" 1 (List.length (Report.failed_files r)));
    Alcotest.test_case "property access fails the file" `Quick (fun () ->
        let r = analyze "echo $row->name;" in
        Alcotest.(check int) "failed" 1 (List.length (Report.failed_files r)));
    Alcotest.test_case "new fails the file" `Quick (fun () ->
        let r = analyze "$w = new Widget();" in
        Alcotest.(check int) "failed" 1 (List.length (Report.failed_files r)));
    Alcotest.test_case "static access fails the file" `Quick (fun () ->
        let r = analyze "echo C::$v;" in
        Alcotest.(check int) "failed" 1 (List.length (Report.failed_files r)));
    Alcotest.test_case "procedural files in the same project still analyzed"
      `Quick (fun () ->
        let project =
          Phplang.Project.make ~name:"p"
            [ { Phplang.Project.path = "oop.php"; source = "<?php class A {}" };
              { Phplang.Project.path = "proc.php";
                source = "<?php echo $_GET['x'];" } ]
        in
        let r = Pixy.analyze_project project in
        Alcotest.(check int) "one finding" 1 (List.length r.Report.findings);
        Alcotest.(check int) "one failure" 1 (List.length (Report.failed_files r)));
  ]

(* heredoc/nowdoc, <?= and ?? reaching the dataflow engine end to end *)
let frontend_cases =
  [
    expect "heredoc interpolation reaches a SQL sink"
      "$id = $_GET['id'];\n$q = <<<SQL\nSELECT $id\nSQL;\nmysql_query($q);"
      [ "SQLi@5" ];
    expect "nowdoc body stays a literal"
      "$id = $_GET['id'];\n$q = <<<'SQL'\nSELECT $id\nSQL;\nmysql_query($q);"
      [];
    expect "short echo tag is an XSS sink" "?>\n<?= $_GET['x'] ?>" [ "XSS@2" ];
    expect "?? joins taint from both operands"
      "$a = $_GET['x'] ?? 'd';\necho $a;" [ "XSS@2" ];
    expect "?? of two literals is clean" "$a = 'x' ?? 'y';\necho $a;" [];
  ]

let () =
  Alcotest.run "pixy"
    [ ("flow-sensitive dataflow", dataflow_cases);
      ("front-end gaps (heredoc, <?=, ??)", frontend_cases);
      ("register_globals", register_globals_cases);
      ("inter-procedural", interproc_cases);
      ("OOP failure policy", oop_cases) ]
