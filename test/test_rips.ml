(** RIPS baseline behaviour tests: backward-directed resolution, procedural
    scope model, OOP blindness, per-file analysis and robustness. *)

open Secflow

let analyze src = Rips.analyze_source ~file:"t.php" ("<?php\n" ^ src)

let findings src =
  (analyze src).Report.findings
  |> List.map (fun (f : Report.finding) ->
         Printf.sprintf "%s@%d" (Vuln.kind_to_string f.Report.kind)
           (f.Report.sink_pos.Phplang.Ast.line - 1))
  |> List.sort compare

let expect name src expected =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check (list string)) name (List.sort compare expected) (findings src))

let backward_cases =
  [
    expect "direct superglobal" "echo $_GET['x'];" [ "XSS@1" ];
    expect "latest definition wins (flow-sensitive backward scan)"
      "$a = $_GET['x'];\n$a = 'safe';\necho $a;" [];
    expect "definition before sink"
      "$a = 'safe';\n$a = $_GET['x'];\necho $a;" [ "XSS@3" ];
    expect "concat-assign joins older defs"
      "$a = $_GET['x'];\n$a .= 'tail';\necho $a;" [ "XSS@3" ];
    expect "a non-concat compound assignment is clean, like $a + $b"
      "$a = 1;\n$a += $_GET['x'];\necho $a;\n$b = $a + $_GET['y'];\necho $b;" [];
    expect "a non-concat compound assignment overwrites an older taint"
      "$a = $_GET['x'];\n$a *= 2;\necho $a;" [];
    expect "foreach binding resolves to subject"
      "$xs = array($_POST['x']);\nforeach ($xs as $v) {\necho $v;\n}" [ "XSS@3" ];
    expect "unset stops the walk" "$a = $_GET['x'];\nunset($a);\necho $a;" [];
    expect "uninitialized variable is harmless (no register_globals)"
      "echo $page_title;" [];
    expect "mysql_fetch_assoc is a db source"
      "$r = mysql_query('q');\n$row = mysql_fetch_assoc($r);\necho $row['c'];"
      [ "XSS@3" ];
    expect "mysql_query is a SQLi sink"
      "$q = $_GET['id'];\nmysql_query(\"SELECT $q\");" [ "SQLi@2" ];
    expect "sanitizer respected" "echo htmlspecialchars($_GET['x']);" [];
    expect "intval respected for SQLi"
      "$id = intval($_GET['id']);\nmysql_query(\"SELECT $id\");" [];
    expect "revert model re-taints"
      "$a = htmlspecialchars($_GET['x']);\n$b = stripslashes($a);\necho $b;"
      [ "XSS@3" ];
    expect "ternary joins" "$a = $c ? $_GET['x'] : 'd';\necho $a;" [ "XSS@2" ];
    expect "interpolation resolved" "$x = $_GET['q'];\necho \"v=$x\";" [ "XSS@2" ];
    expect "print and exit sinks" "print $_GET['a'];\nexit($_GET['b']);"
      [ "XSS@1"; "XSS@2" ];
  ]

let interproc_cases =
  [
    expect "sink inside function resolved through call sites"
      "function f($m) {\necho $m;\n}\nf($_GET['x']);" [ "XSS@2" ];
    expect "function with only clean callers is silent"
      "function f($m) {\necho $m;\n}\nf('hi');" [];
    expect "any tainted caller fires the sink"
      "function f($m) {\necho $m;\n}\nf('hi');\nf($_GET['x']);" [ "XSS@2" ];
    expect "return value resolution with bound arguments"
      "function wrap($m) {\nreturn '<b>' . $m;\n}\necho wrap($_POST['x']);"
      [ "XSS@4" ];
    expect "return of source inside callee"
      "function f() {\nreturn fgets($fp);\n}\necho f();" [ "XSS@4" ];
    expect "uncalled function still scanned (unlike Pixy)"
      "function hook() {\necho $_COOKIE['t'];\n}" [ "XSS@2" ];
    expect "recursive function terminates"
      "function f($a) {\necho $a;\nreturn f($a);\n}\nf($_GET['x']);" [ "XSS@2" ];
    expect "global resolves at file top level"
      "$g = $_GET['x'];\nfunction f() {\nglobal $g;\necho $g;\n}\nf();" [ "XSS@4" ];
    expect "unknown function conservatively propagates (no WP profile)"
      "echo esc_html($_GET['x']);" [ "XSS@1" ];
    expect "unknown function with clean args is silent"
      "echo esc_html('static');" [];
  ]

let oop_cases =
  [
    expect "method calls are opaque (misses $wpdb source)"
      "$rows = $wpdb->get_results('SELECT 1');\nforeach ($rows as $r) {\necho $r->name;\n}"
      [];
    expect "code inside class bodies is skipped"
      "class W {\npublic function render() {\necho $_GET['x'];\n}\n}" [];
    expect "top-level code in an OOP file is still analyzed"
      "class W {\npublic function render() {\necho $_GET['x'];\n}\n}\necho $_GET['y'];"
      [ "XSS@6" ];
    expect "wpdb SQLi invisible"
      "$id = $_GET['id'];\n$wpdb->query(\"DELETE $id\");" [];
    expect "property reads are untainted"
      "$v = $obj->data;\necho $v;" [];
  ]

let robustness_cases =
  [
    Alcotest.test_case "parse failure does not abort the project" `Quick
      (fun () ->
        let project =
          Phplang.Project.make ~name:"p"
            [ { Phplang.Project.path = "bad.php"; source = "<?php $a = ;" };
              { Phplang.Project.path = "ok.php";
                source = "<?php echo $_GET['x'];" } ]
        in
        let r = Rips.analyze_project project in
        Alcotest.(check int) "finding from ok.php" 1
          (List.length r.Report.findings);
        Alcotest.(check int) "one error" 1 r.Report.errors);
    Alcotest.test_case "per-file analysis: no cross-file taint" `Quick
      (fun () ->
        (* phpSAFE resolves this include; RIPS does not *)
        let project =
          Phplang.Project.make ~name:"p"
            [ { Phplang.Project.path = "main.php";
                source = "<?php $t = $_GET['x']; include 'view.php';" };
              { Phplang.Project.path = "view.php"; source = "<?php echo $t;" } ]
        in
        let r = Rips.analyze_project project in
        Alcotest.(check int) "no findings" 0 (List.length r.Report.findings));
    Alcotest.test_case "duplicate sinks deduplicated across project" `Quick
      (fun () ->
        let r = analyze "function f($a) {\necho $a;\n}\nf($_GET['x']);\nf($_GET['y']);" in
        Alcotest.(check int) "one finding" 1 (List.length r.Report.findings));
    Alcotest.test_case "deep backward chains bounded" `Quick (fun () ->
        (* 100 chained assignments still resolve *)
        let buf = Buffer.create 1024 in
        Buffer.add_string buf "<?php\n$v0 = $_GET['x'];\n";
        for i = 1 to 100 do
          Buffer.add_string buf (Printf.sprintf "$v%d = $v%d;\n" i (i - 1))
        done;
        Buffer.add_string buf "echo $v100;\n";
        let r = Rips.analyze_source ~file:"t.php" (Buffer.contents buf) in
        (* depth limiting may stop the walk, but it must terminate quickly
           and never crash *)
        Alcotest.(check bool) "terminates" true
          (List.length r.Report.findings <= 1));
  ]

(* heredoc/nowdoc, <?= and ?? reaching the backward resolver end to end *)
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
  Alcotest.run "rips"
    [ ("backward resolution", backward_cases);
      ("front-end gaps (heredoc, <?=, ??)", frontend_cases);
      ("inter-procedural", interproc_cases);
      ("OOP blindness", oop_cases);
      ("robustness", robustness_cases) ]
