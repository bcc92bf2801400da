(** phpSAFE analyzer behaviour tests, organised by the paper's §III.C token
    rules, §III.E OOP support, function summaries, includes and the memory
    budget. *)

open Secflow

let analyze src = Phpsafe.analyze_source ~file:"t.php" ("<?php\n" ^ src)

let findings src =
  (analyze src).Report.findings
  |> List.map (fun (f : Report.finding) ->
         (f.Report.kind, f.Report.sink_pos.Phplang.Ast.line))

(* line numbers below are 1-based on [src], i.e. after the injected tag *)
let expect name src expected =
  Alcotest.test_case name `Quick (fun () ->
      let got =
        findings src
        |> List.map (fun (k, l) -> Printf.sprintf "%s@%d" (Vuln.kind_to_string k) (l - 1))
        |> List.sort compare
      in
      Alcotest.(check (list string)) name (List.sort compare expected) got)

let analyze_flow src =
  let opts = { Phpsafe.default_options with Phpsafe.flow_sensitive = true } in
  Phpsafe.analyze_source ~opts ~file:"t.php" ("<?php\n" ^ src)

let expect_flow name src expected =
  Alcotest.test_case name `Quick (fun () ->
      let got =
        (analyze_flow src).Report.findings
        |> List.map (fun (f : Report.finding) ->
               Printf.sprintf "%s@%d"
                 (Vuln.kind_to_string f.Report.kind)
                 (f.Report.sink_pos.Phplang.Ast.line - 1))
        |> List.sort compare
      in
      Alcotest.(check (list string)) name (List.sort compare expected) got)

(* the same expectation for the flat walk and for [--flow] *)
let expect_both name src expected =
  [ expect name src expected; expect_flow (name ^ " (--flow)") src expected ]

let analyze_with opts src =
  Phpsafe.analyze_source ~opts ~file:"t.php" ("<?php\n" ^ src)

let ctx_opts = { Phpsafe.default_options with Phpsafe.infer_contexts = true }

(* Findings in report order, with every field a sink decides: kind, line
   (1-based on [src]), sink, variable, and under --contexts the inferred
   context and the applied sanitizers. *)
let finding_seq (r : Report.result) =
  List.map
    (fun (f : Report.finding) ->
      Printf.sprintf "%s@%d %s(%s)%s%s"
        (Vuln.kind_to_string f.Report.kind)
        (f.Report.sink_pos.Phplang.Ast.line - 1)
        f.Report.sink f.Report.variable
        (match f.Report.context with
        | Some c -> " " ^ Context.to_string c
        | None -> "")
        (match f.Report.sanitizers_applied with
        | [] -> ""
        | ss -> " {" ^ String.concat "," ss ^ "}"))
    r.Report.findings

(* One sink shape pinned in both modes: the published (flat) walk and
   --contexts, each by its exact finding sequence. *)
let expect_seq ?(run = analyze_with) name src ~flat ~ctx =
  let case name opts expected =
    Alcotest.test_case name `Quick (fun () ->
        Alcotest.(check (list string)) name expected (finding_seq (run opts src)))
  in
  [ case name Phpsafe.default_options flat;
    case (name ^ " (--contexts)") ctx_opts ctx ]

let flow_cases =
  [
    expect "direct superglobal echo" "echo $_GET['x'];" [ "XSS@1" ];
    expect "assignment propagates" "$a = $_GET['x'];\necho $a;" [ "XSS@2" ];
    expect "copy chains propagate" "$a = $_POST['x'];\n$b = $a;\n$c = $b;\necho $c;"
      [ "XSS@4" ];
    expect "concat keeps taint" "$a = 'x' . $_GET['y'] . 'z';\necho $a;" [ "XSS@2" ];
    expect "concat-assign keeps taint" "$a = 'x';\n$a .= $_GET['y'];\necho $a;"
      [ "XSS@3" ];
    expect "arithmetic scrubs" "$a = $_GET['x'] + 1;\necho $a;" [];
    expect "comparison scrubs" "$a = $_GET['x'] == 'y';\necho $a;" [];
    expect "int cast scrubs" "$a = (int) $_GET['x'];\necho $a;" [];
    expect "string cast keeps" "$a = (string) $_GET['x'];\necho $a;" [ "XSS@2" ];
    expect "interpolation carries taint" "$x = $_GET['q'];\necho \"<div>$x</div>\";"
      [ "XSS@2" ];
    expect "ternary joins branches" "$a = $_GET['f'] ? $_GET['v'] : 'd';\necho $a;"
      [ "XSS@2" ];
    expect "isset guard form still tainted"
      "$a = isset($_GET['v']) ? $_GET['v'] : '';\necho $a;" [ "XSS@2" ];
    expect "array element taints whole array"
      "$a = array();\n$a['k'] = $_GET['x'];\necho $a['other'];" [ "XSS@3" ];
    expect "array literal with tainted item"
      "$a = array('k' => $_GET['x']);\necho $a['k'];" [ "XSS@2" ];
    expect "list assignment" "list($a, $b) = array($_GET['x'], 1);\necho $b;"
      [ "XSS@2" ];
    expect "unset clears taint (T_UNSET rule)"
      "$a = $_GET['x'];\nunset($a);\necho $a;" [];
    expect "foreach taints bound variable"
      "$rows = array($_GET['x']);\nforeach ($rows as $r) {\necho $r;\n}"
      [ "XSS@3" ];
    expect "foreach key-value" "$rows = array($_POST['x']);\nforeach ($rows as $k => $v) {\necho $v;\n}"
      [ "XSS@3" ];
    expect "loops do not change data flow (while)"
      "$a = $_GET['x'];\nwhile ($i < 3) {\necho $a;\n$i++;\n}" [ "XSS@3" ];
    expect "echo of multiple args reports each"
      "echo $_GET['a'], $_GET['b'];" [ "XSS@1" ];
    (* same sink line: de-duplicated by (kind, file, line) *)
    expect "print expression is a sink" "print $_GET['x'];" [ "XSS@1" ];
    expect "exit message is a sink" "exit($_GET['x']);" [ "XSS@1" ];
    expect "printf is a sink" "printf('%s', $_COOKIE['x']);" [ "XSS@1" ];
    expect "sequential branch execution (paper semantics)"
      "if ($c) {\n$a = $_GET['x'];\n} else {\n$a = 'safe';\n}\necho $a;" [];
    expect "taint survives if no later overwrite"
      "if ($c) {\n$a = $_GET['x'];\necho $a;\n}" [ "XSS@3" ];
  ]
  @ expect_seq "print and exit"
      "$a = $_GET['a'];\nprint '<p>' . $a;\n$b = $_GET['b'];\nexit(\"<b title=\" . $b);"
      ~flat:[ "XSS@2 print(<concat>)"; "XSS@4 exit(<concat>)" ]
      ~ctx:[ "XSS@2 print($a) html-body"; "XSS@4 exit($b) html-attr-unquoted" ]
  @ expect_seq "echo with several expressions"
      "$a = $_GET['a'];\n$b = $_GET['b'];\necho '<p>' . $a, 'x', \"<input value=\" . $b . '>';"
      ~flat:[ "XSS@3 echo(<concat>)" ]
      ~ctx:[ "XSS@3 echo($a) html-body"; "XSS@3 echo($b) html-attr-unquoted" ]
  @ expect_seq "a sink checking every argument, two tainted"
      "$a = $_GET['a'];\n$b = $_GET['b'];\nprintf($a, '<i>' . $b);"
      ~flat:[ "XSS@3 printf($a)"; "XSS@3 printf(<concat>)" ]
      ~ctx:[ "XSS@3 printf($a) html-body"; "XSS@3 printf($b) html-body" ]
  (* each argument is checked against both entries before the next one is
     evaluated; the flat walk used to check sink by sink:
     [XSS $a; XSS $b; SQLi $a; SQLi $b] *)
  @ expect_seq "two sink entries apply to one call"
      ~run:(fun opts ->
        analyze_with
          { opts with
            Phpsafe.config =
              { Phpsafe.default_options.Phpsafe.config with
                Phpsafe.Config.sinks =
                  Phpsafe.default_options.Phpsafe.config.Phpsafe.Config.sinks
                  @ [ Phpsafe.Config.sink "printf" Vuln.Sqli ] } })
      "$a = $_GET['a'];\n$b = $_GET['b'];\nprintf($a, $b);"
      ~flat:[ "XSS@3 printf($a)"; "SQLi@3 printf($a)"; "XSS@3 printf($b)";
              "SQLi@3 printf($b)" ]
      ~ctx:[ "XSS@3 printf($a) html-body"; "SQLi@3 printf($a) sql-quoted-string";
             "XSS@3 printf($b) html-body"; "SQLi@3 printf($b) sql-quoted-string" ]

let sanitizer_cases =
  [
    expect "htmlspecialchars cleans XSS" "echo htmlspecialchars($_GET['x']);" [];
    expect "esc_html (WordPress) cleans XSS" "echo esc_html($_GET['x']);" [];
    expect "intval cleans both" "$a = intval($_GET['x']);\necho $a;\n$wpdb->query(\"q $a\");" [];
    expect "sanitizer does not clean other kind"
      "$a = htmlspecialchars($_GET['x']);\n$wpdb->query(\"SELECT $a\");"
      [ "SQLi@2" ];
    expect "revert reinstates taint"
      "$a = htmlspecialchars($_GET['x']);\n$b = stripslashes($a);\necho $b;"
      [ "XSS@3" ];
    expect "revert without prior sanitization keeps taint"
      "$a = stripslashes($_GET['x']);\necho $a;" [ "XSS@2" ];
    expect "passthrough builtin keeps taint" "echo trim($_GET['x']);" [ "XSS@1" ];
    expect "sprintf joins all args" "echo sprintf('%s-%s', 'a', $_GET['x']);"
      [ "XSS@1" ];
    expect "unknown function returns untainted"
      "$a = some_unknown_fn($_GET['x']);\necho $a;" [];
    expect "guard trap is reported (path-insensitive)"
      "$n = $_GET['n'];\nif (!is_numeric($n)) { exit; }\necho $n;" [ "XSS@3" ];
  ]

let interproc_cases =
  [
    expect "taint through parameter into sink"
      "function f($m) {\necho $m;\n}\nf($_GET['x']);" [ "XSS@2" ];
    expect "clean call does not fire the sink"
      "function f($m) {\necho $m;\n}\nf('hello');" [];
    expect "taint through return value"
      "function f($m) {\nreturn '<b>' . $m;\n}\necho f($_POST['x']);" [ "XSS@4" ];
    expect "function sanitizing its argument"
      "function f($m) {\nreturn htmlspecialchars($m);\n}\necho f($_GET['x']);" [];
    expect "source inside callee reaches caller sink"
      "function f() {\nreturn $_GET['x'];\n}\necho f();" [ "XSS@4" ];
    expect "two-level call chain"
      "function inner($a) {\nreturn $a;\n}\nfunction outer($b) {\nreturn inner($b);\n}\necho outer($_GET['x']);"
      [ "XSS@7" ];
    expect "nested conditional sink (hoisting)"
      "function show($t) {\necho $t;\n}\nfunction relay($u) {\nshow($u);\n}\nrelay($_GET['x']);"
      [ "XSS@2" ];
    expect "recursion terminates without findings"
      "function f($a) {\nreturn f($a);\n}\necho f($_GET['x']);" [];
    expect "recursion with internal sink"
      "function f($a) {\necho $a;\nreturn f($a);\n}\nf($_GET['x']);" [ "XSS@2" ];
    expect "uncalled function analyzed as entry point"
      "function hook() {\necho $_COOKIE['c'];\n}" [ "XSS@2" ];
    expect "uncalled function params are untainted"
      "function hook($arg) {\necho $arg;\n}" [];
    expect "closure body analyzed"
      "$cb = function() {\necho $_GET['x'];\n};" [ "XSS@2" ];
    expect "closure captures current taint"
      "$t = $_GET['x'];\n$cb = function() use ($t) {\necho $t;\n};" [ "XSS@3" ];
    expect "static variable initialization"
      "function f() {\nstatic $s = 'x';\necho $s;\n}\nf();" [];
    expect "global declaration shares state"
      "$g = $_GET['x'];\nfunction f() {\nglobal $g;\necho $g;\n}\nf();" [ "XSS@4" ];
  ]
  (* [$a] is checked before [f($b)] is evaluated; the flat walk used to
     evaluate every argument first: [echo $m; printf $a; printf f()] *)
  @ expect_seq "nested sink inside a later argument"
      "function f($m) {\necho $m;\nreturn $m;\n}\n$a = $_GET['a'];\n$b = $_GET['b'];\nprintf($a, f($b));"
      ~flat:[ "XSS@7 printf($a)"; "XSS@2 echo($m)"; "XSS@7 printf(f())" ]
      ~ctx:[ "XSS@7 printf($a) html-body"; "XSS@2 echo($m) html-body";
             "XSS@7 printf(f()) html-body" ]
  @ expect_seq "parameter-fed sink in a function called twice"
      "function show($v) {\necho \"<input value=\" . $v . '>';\n}\nshow(htmlspecialchars($_GET['a']));\nshow($_GET['b']);"
      ~flat:[ "XSS@2 echo(<concat>)" ]
      ~ctx:[ "XSS@2 echo($v) html-attr-unquoted {htmlspecialchars}" ]

let oop_cases =
  [
    expect "wpdb get_results is an XSS source (paper §III.E)"
      "$rows = $wpdb->get_results('SELECT * FROM sml');\nforeach ($rows as $row) {\necho $row->sml_name;\n}"
      [ "XSS@3" ];
    expect "wpdb get_var source" "$v = $wpdb->get_var('SELECT x');\necho $v;"
      [ "XSS@2" ];
    expect "wpdb query is a SQLi sink"
      "$id = $_GET['id'];\n$wpdb->query(\"DELETE WHERE id = $id\");" [ "SQLi@2" ];
    expect "wpdb get_results also a SQLi sink"
      "$q = $_POST['q'];\n$wpdb->get_results(\"SELECT $q\");"
      [ "SQLi@2" ];
    expect "wpdb prepare sanitizes SQLi"
      "$wpdb->query($wpdb->prepare('SELECT %s', $_GET['x']));" [];
    expect "method of user class with internal source"
      "class W {\npublic function render() {\necho $_GET['f'];\n}\n}" [ "XSS@3" ];
    expect "taint through method parameter"
      "class W {\npublic function show($t) {\necho $t;\n}\n}\n$w = new W();\n$w->show($_GET['x']);"
      [ "XSS@3" ];
    expect "property store and echo across methods (§III.E full names)"
      "class F {\npublic $d;\npublic function capture() {\n$this->d = $_GET['x'];\n}\npublic function display() {\necho $this->d;\n}\n}"
      [ "XSS@7" ];
    expect "static method call"
      "class S {\npublic static function go($t) {\necho $t;\n}\n}\nS::go($_POST['x']);"
      [ "XSS@3" ];
    expect "static property flow"
      "class C {\npublic static $v;\n}\nC::$v = $_GET['x'];\necho C::$v;" [ "XSS@5" ];
    expect "inherited method resolution"
      "class Base {\npublic function emit($t) {\necho $t;\n}\n}\nclass Child extends Base {\n}\n$c = new Child();\n$c->emit($_GET['x']);"
      [ "XSS@3" ];
    expect "constructor analyzed on new"
      "class K {\npublic function __construct($t) {\necho $t;\n}\n}\nnew K($_GET['x']);"
      [ "XSS@3" ];
    expect "object row property inherits object taint"
      "$row = $wpdb->get_row('SELECT 1');\necho $row->title;" [ "XSS@2" ];
    expect "class binding copied through assignment"
      "class W {\npublic function show($t) {\necho $t;\n}\n}\n$a = new W();\n$b = $a;\n$b->show($_GET['x']);"
      [ "XSS@3" ];
    expect "unknown method returns untainted"
      "$v = $mailer->fetch_subject();\necho $v;" [];
  ]
  (* the query is checked before [f(...)] is evaluated; both modes used to
     evaluate the later arguments first: [... echo $m; query $q] *)
  @ expect_seq "method sink whose later argument is tainted"
      "function f($m) {\necho $m;\nreturn $m;\n}\n$q = $_GET['q'];\n$wpdb->query(\"SELECT \" . $q, $_GET['x']);\n$wpdb->query($q, f($_GET['y']));"
      ~flat:[ "SQLi@6 $wpdb->query(<concat>)"; "SQLi@7 $wpdb->query($q)";
              "XSS@2 echo($m)" ]
      ~ctx:[ "SQLi@6 $wpdb->query($q) sql-identifier";
             "SQLi@7 $wpdb->query($q) sql-quoted-string";
             "XSS@2 echo($m) html-body" ]
  @ expect_seq "$wpdb->insert reached through a summary (--second-order)"
      ~run:(fun opts src ->
        Phpsafe.analyze_project_so ~opts
          (Phplang.Project.make ~name:"p"
             [ { Phplang.Project.path = "t.php"; source = "<?php\n" ^ src } ]))
      "function save_row($v) {\nglobal $wpdb;\n$wpdb->insert('rows', array('v' => $v));\n}\nsave_row($_POST['x']);\n$r = $wpdb->get_var('SELECT v FROM rows');\n$wpdb->query(\"DELETE FROM t WHERE v = '\" . $r . \"'\");\n$wpdb->query('DELETE FROM t WHERE n = ' . $r);"
      ~flat:[ "SO-SQLi@7 $wpdb->query(<concat>)"; "SO-SQLi@8 $wpdb->query(<concat>)" ]
      ~ctx:[ "SO-SQLi@7 $wpdb->query($r) sql-quoted-string";
             "SO-SQLi@8 $wpdb->query($r) sql-numeric" ]

let project_cases =
  expect_seq "dynamic include"
    "include $_GET['p'];\n$t = $_GET['t'];\ninclude 'tpl/' . $t . '.php';"
    ~flat:[ "LFI@1 include($_GET[...])"; "LFI@3 include(<concat>)" ]
    ~ctx:[ "LFI@1 include($_GET[...]) file-path"; "LFI@3 include($t) file-path" ]
  @ [
    Alcotest.test_case "include resolves across files" `Quick (fun () ->
        let project =
          Phplang.Project.make ~name:"p"
            [ { Phplang.Project.path = "main.php";
                source = "<?php\n$t = $_GET['x'];\ninclude 'view.php';\n" };
              { Phplang.Project.path = "view.php";
                source = "<?php\necho $t;\n" } ]
        in
        let r = Phpsafe.analyze_project project in
        Alcotest.(check int) "one finding" 1 (List.length r.Report.findings);
        let f = List.hd r.Report.findings in
        Alcotest.(check string) "in view.php" "view.php"
          f.Report.sink_pos.Phplang.Ast.file);
    Alcotest.test_case "missing include is skipped" `Quick (fun () ->
        let r =
          Phpsafe.analyze_source ~file:"t.php"
            "<?php include 'wp-load.php'; echo $_GET['x'];"
        in
        Alcotest.(check int) "finding survives" 1 (List.length r.Report.findings));
    Alcotest.test_case "include cycles terminate" `Quick (fun () ->
        let project =
          Phplang.Project.make ~name:"p"
            [ { Phplang.Project.path = "a.php";
                source = "<?php include 'b.php'; echo $_GET['a'];" };
              { Phplang.Project.path = "b.php";
                source = "<?php include 'a.php'; echo $_GET['b'];" } ]
        in
        let r = Phpsafe.analyze_project project in
        Alcotest.(check bool) "completes with findings" true
          (List.length r.Report.findings >= 2));
    Alcotest.test_case "deep include chain exhausts the memory budget" `Quick
      (fun () ->
        let chain n =
          List.init n (fun i ->
              let next =
                if i + 1 < n then
                  Printf.sprintf "<?php include 'c%d.php';" (i + 1)
                else "<?php $x = 1;"
              in
              { Phplang.Project.path = Printf.sprintf "c%d.php" i; source = next })
        in
        let files =
          { Phplang.Project.path = "main.php";
            source = "<?php include 'c0.php'; echo $_GET['x'];" }
          :: chain 7
        in
        let r = Phpsafe.analyze_project (Phplang.Project.make ~name:"p" files) in
        let failed = Report.failed_files r in
        Alcotest.(check (list string)) "only main fails" [ "main.php" ] failed;
        (* the vulnerability in the failed file is missed *)
        Alcotest.(check int) "no findings" 0 (List.length r.Report.findings));
    Alcotest.test_case "budget can be disabled" `Quick (fun () ->
        let files =
          [ { Phplang.Project.path = "main.php";
              source = "<?php include 'c0.php'; echo $_GET['x'];" } ]
          @ List.init 8 (fun i ->
                let next =
                  if i < 7 then Printf.sprintf "<?php include 'c%d.php';" (i + 1)
                  else "<?php $y = 1;"
                in
                { Phplang.Project.path = Printf.sprintf "c%d.php" i; source = next })
        in
        let opts = { Phpsafe.default_options with Phpsafe.budget = None } in
        let r =
          Phpsafe.analyze_project ~opts (Phplang.Project.make ~name:"p" files)
        in
        Alcotest.(check int) "no failed files" 0
          (List.length (Report.failed_files r));
        Alcotest.(check int) "finding recovered" 1 (List.length r.Report.findings));
    Alcotest.test_case "parse failure recorded" `Quick (fun () ->
        let r = Phpsafe.analyze_source ~file:"bad.php" "<?php $a = ;" in
        Alcotest.(check int) "failed" 1 (List.length (Report.failed_files r)));
    Alcotest.test_case "findings carry trace back to the source" `Quick
      (fun () ->
        let r =
          Phpsafe.analyze_source ~file:"t.php"
            "<?php\n$a = $_GET['x'];\n$b = $a;\necho $b;"
        in
        match r.Report.findings with
        | [ f ] ->
            Alcotest.(check bool) "trace non-empty" true (f.Report.trace <> []);
            let first = List.hd f.Report.trace in
            Alcotest.(check string) "starts at the source" "$_GET"
              first.Report.step_var
        | _ -> Alcotest.fail "expected exactly one finding");
    Alcotest.test_case "duplicate sink reported once" `Quick (fun () ->
        let r =
          Phpsafe.analyze_source ~file:"t.php"
            "<?php\nfunction f($a) {\necho $a;\n}\nf($_GET['x']);\nf($_GET['y']);"
        in
        Alcotest.(check int) "one deduplicated finding" 1
          (List.length r.Report.findings));
    Alcotest.test_case "two distinct sinks on one line both reported" `Quick
      (fun () ->
        (* regression: dedup used to key findings by (kind, file, line)
           only, collapsing echo $a and echo $b into one finding *)
        let r =
          Phpsafe.analyze_source ~file:"t.php"
            "<?php\n$a = $_GET['a'];\n$b = $_GET['b'];\necho $a; echo $b;"
        in
        let vars =
          List.map (fun (f : Report.finding) -> f.Report.variable)
            r.Report.findings
          |> List.sort compare
        in
        Alcotest.(check (list string)) "both variables" [ "$a"; "$b" ] vars);
    Alcotest.test_case "identical sink occurrence still deduplicated" `Quick
      (fun () ->
        let r =
          Phpsafe.analyze_source ~file:"t.php"
            "<?php\nfunction f($a) {\necho $a;\n}\nf($_GET['x']);\nf($_GET['y']);"
        in
        Alcotest.(check int) "still one finding" 1
          (List.length r.Report.findings));
  ]

(* -- analyzer option flags (ablation switches) ----------------------- *)

let reference_cases =
  [
    expect "write through a reference taints the other name"
      "$a = 'safe';\n$b =& $a;\n$b = $_GET['x'];\necho $a;" [ "XSS@4" ];
    expect "reference to an already-tainted variable"
      "$a = $_GET['x'];\n$b =& $a;\necho $b;" [ "XSS@3" ];
    expect "sanitizing through one alias cleans the cell"
      "$a = $_GET['x'];\n$b =& $a;\n$b = htmlspecialchars($b);\necho $a;" [];
    expect "unset breaks only the unset name"
      "$a = $_GET['x'];\n$b =& $a;\nunset($b);\necho $a;" [ "XSS@4" ];
    expect "alias chains resolve transitively"
      "$a = 'safe';\n$b =& $a;\n$c =& $b;\n$c = $_GET['x'];\necho $a;"
      [ "XSS@5" ];
  ]
  (* [unset] of either name leaves the cell alive through the other: PHP
     echoes the input in both orders *)
  @ [ expect_flow "unset breaks only the unset name (--flow)"
        "$a = $_GET['x'];\n$b =& $a;\nunset($b);\necho $a;" [ "XSS@4" ] ]
  @ expect_both "unset of the reference target keeps the alias's value"
      "$a = $_GET['x'];\n$b =& $a;\nunset($a);\necho $b;" [ "XSS@4" ]
  @ expect_both "unset target: remaining aliases follow the heir"
      "$a = $_GET['x'];\n$b =& $a;\n$c =& $a;\nunset($a);\n$c = 'safe';\necho $b;"
      []
  @ expect_both "unset target: the unset name itself is clean"
      "$a = $_GET['x'];\n$b =& $a;\nunset($a);\necho $a;" []

let option_cases =
  [
    Alcotest.test_case "analyze_uncalled=false skips hook functions" `Quick
      (fun () ->
        let opts = { Phpsafe.default_options with Phpsafe.analyze_uncalled = false } in
        let r = analyze_with opts "function hook() {\necho $_GET['x'];\n}" in
        Alcotest.(check int) "no findings" 0 (List.length r.Report.findings);
        (* called code is unaffected *)
        let r2 = analyze_with opts "echo $_GET['x'];" in
        Alcotest.(check int) "top-level still found" 1
          (List.length r2.Report.findings));
    Alcotest.test_case "resolve_includes=false loses local-scope include flows"
      `Quick (fun () ->
        (* a template include inside a function sees the function's locals;
           without resolution that flow is gone (top-level flows survive via
           the shared global state, which models WordPress loading every
           plugin file into one runtime) *)
        let project =
          Phplang.Project.make ~name:"p"
            [ { Phplang.Project.path = "main.php";
                source =
                  "<?php function render() { $t = $_GET['x']; include 'view.php'; } render();" };
              { Phplang.Project.path = "view.php"; source = "<?php echo $t;" } ]
        in
        let with_inc = Phpsafe.analyze_project project in
        Alcotest.(check int) "found with resolution" 1
          (List.length with_inc.Report.findings);
        let opts = { Phpsafe.default_options with Phpsafe.resolve_includes = false } in
        let without = Phpsafe.analyze_project ~opts project in
        Alcotest.(check int) "lost without resolution" 0
          (List.length without.Report.findings));
    Alcotest.test_case "resolve_includes=false disables the memory budget"
      `Quick (fun () ->
        let opts = { Phpsafe.default_options with Phpsafe.resolve_includes = false } in
        let files =
          { Phplang.Project.path = "main.php";
            source = "<?php include 'c0.php'; echo $_GET['x'];" }
          :: List.init 8 (fun i ->
                 let next =
                   if i < 7 then Printf.sprintf "<?php include 'c%d.php';" (i + 1)
                   else "<?php $y = 1;"
                 in
                 { Phplang.Project.path = Printf.sprintf "c%d.php" i; source = next })
        in
        let r = Phpsafe.analyze_project ~opts (Phplang.Project.make ~name:"p" files) in
        Alcotest.(check int) "no failures" 0 (List.length (Report.failed_files r));
        Alcotest.(check int) "finding recovered" 1 (List.length r.Report.findings));
    Alcotest.test_case "respect_guards removes the numeric-guard FP" `Quick
      (fun () ->
        let opts = { Phpsafe.default_options with Phpsafe.respect_guards = true } in
        let src = "$n = $_GET['n'];\nif (!is_numeric($n)) { exit; }\necho $n;" in
        let r = analyze_with opts src in
        Alcotest.(check int) "guarded echo is clean" 0
          (List.length r.Report.findings);
        (* and the default stays path-insensitive like the paper's tool *)
        let r2 = analyze_with Phpsafe.default_options src in
        Alcotest.(check int) "default still flags it" 1
          (List.length r2.Report.findings));
    Alcotest.test_case "respect_guards needs a terminating branch" `Quick
      (fun () ->
        let opts = { Phpsafe.default_options with Phpsafe.respect_guards = true } in
        let r =
          analyze_with opts
            "$n = $_GET['n'];\nif (!is_numeric($n)) { $n = $n . '!'; }\necho $n;"
        in
        Alcotest.(check int) "non-terminating branch keeps taint" 1
          (List.length r.Report.findings));
    Alcotest.test_case "respect_guards ignores unknown guards" `Quick (fun () ->
        let opts = { Phpsafe.default_options with Phpsafe.respect_guards = true } in
        let r =
          analyze_with opts
            "$n = $_GET['n'];\nif (!my_check($n)) { exit; }\necho $n;"
        in
        Alcotest.(check int) "unknown guard keeps taint" 1
          (List.length r.Report.findings));
    Alcotest.test_case "generic config loses WordPress detections" `Quick
      (fun () ->
        let opts =
          { Phpsafe.default_options with Phpsafe.config = Phpsafe.Config.generic_php }
        in
        let r =
          analyze_with opts
            "$v = $wpdb->get_var('SELECT x');\necho $v;\necho esc_html($_GET['q']);"
        in
        (* loses the $wpdb source, and esc_html is unknown (returns clean) *)
        Alcotest.(check int) "no findings" 0 (List.length r.Report.findings));
  ]

(* -- sink-context-sensitive sanitization (--contexts) ---------------- *)

let expect_with opts name src expected =
  Alcotest.test_case name `Quick (fun () ->
      let got =
        (analyze_with opts src).Report.findings
        |> List.map (fun (f : Report.finding) ->
               Printf.sprintf "%s@%d" (Vuln.kind_to_string f.Report.kind)
                 (f.Report.sink_pos.Phplang.Ast.line - 1))
        |> List.sort compare
      in
      Alcotest.(check (list string)) name (List.sort compare expected) got)

let expect_ctx name src expected = expect_with ctx_opts name src expected

let context_cases =
  [
    (* context mismatches the flat model accepts as sanitized *)
    expect_ctx "htmlspecialchars inadequate in unquoted attribute"
      "$a = htmlspecialchars($_GET['x']);\necho \"<input value=\" . $a . \">\";"
      [ "XSS@2" ];
    expect_with Phpsafe.default_options
      "flat model accepts the unquoted attribute"
      "$a = htmlspecialchars($_GET['x']);\necho \"<input value=\" . $a . \">\";"
      [];
    expect_ctx "htmlspecialchars inadequate in a script string"
      "echo \"<script>var q = '\" . htmlspecialchars($_GET['q']) . \"';</script>\";"
      [ "XSS@1" ];
    expect_ctx "addslashes inadequate in a numeric SQL position"
      "$id = addslashes($_GET['id']);\nmysql_query(\"UPDATE t SET f = 1 WHERE id = \" . $id);"
      [ "SQLi@2" ];
    (* adequate sanitizers stay accepted *)
    expect_ctx "htmlspecialchars adequate in the body"
      "echo '<p>' . htmlspecialchars($_GET['x']) . '</p>';" [];
    expect_ctx "htmlspecialchars adequate in a quoted attribute"
      "echo '<input value=\"' . htmlspecialchars($_GET['x']) . '\">';" [];
    expect_ctx "addslashes adequate in a quoted SQL string"
      "mysql_query(\"SELECT * FROM t WHERE name = '\" . addslashes($_GET['n']) . \"'\");"
      [];
    expect_ctx "intval adequate everywhere"
      "echo \"<input value=\" . intval($_GET['x']) . \">\";" [];
    expect_ctx "unsanitized sink still reported with a context"
      "echo \"<input value=\" . $_GET['x'] . \">\";" [ "XSS@1" ];
    (* revert exactness: stripslashes clears only the slash escapers *)
    expect_ctx "stripslashes does not undo htmlspecialchars"
      "$a = htmlspecialchars($_GET['x']);\n$a = stripslashes($a);\necho '<p>' . $a . '</p>';"
      [];
    expect_with Phpsafe.default_options "flat revert model still flags it"
      "$a = htmlspecialchars($_GET['x']);\n$a = stripslashes($a);\necho '<p>' . $a . '</p>';"
      [ "XSS@3" ];
    expect_ctx "stripslashes does undo addslashes"
      "$a = addslashes($_GET['n']);\n$a = stripslashes($a);\nmysql_query(\"SELECT * FROM t WHERE name = '\" . $a . \"'\");"
      [ "SQLi@3" ];
    (* sanitizer sets compose across function-summary boundaries *)
    expect_ctx "callee-applied sanitizer survives a caller stripslashes"
      "function enc_v($v) { return htmlspecialchars($v); }\n$a = enc_v($_GET['x']);\n$a = stripslashes($a);\necho '<p>' . $a . '</p>';"
      [];
    expect_ctx "callee-applied addslashes undone by caller stripslashes"
      "function esc_v($v) { return addslashes($v); }\n$q = esc_v($_POST['n']);\n$q = stripslashes($q);\nmysql_query(\"SELECT * FROM t WHERE name = '\" . $q . \"'\");"
      [ "SQLi@4" ];
    expect_ctx "conditional sink fires on context mismatch"
      "function show_v($v) {\necho \"<input value=\" . $v . \">\";\n}\nshow_v(htmlspecialchars($_GET['x']));"
      [ "XSS@2" ];
    expect_ctx "conditional sink suppressed when adequate"
      "function put_v($v) {\necho '<p>' . $v . '</p>';\n}\nput_v(htmlspecialchars($_GET['x']));"
      [];
    Alcotest.test_case "finding carries context and sanitizer set" `Quick
      (fun () ->
        let r =
          analyze_with ctx_opts
            "$a = htmlspecialchars($_GET['x']);\necho \"<input value=\" . $a . \">\";"
        in
        match r.Report.findings with
        | [ f ] ->
            Alcotest.(check (option string)) "context"
              (Some "html-attr-unquoted")
              (Option.map Context.to_string f.Report.context);
            Alcotest.(check (list string)) "sanitizers"
              [ "htmlspecialchars" ] f.Report.sanitizers_applied
        | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs));
    Alcotest.test_case "flat mode leaves the new fields empty" `Quick
      (fun () ->
        let r = analyze "echo $_GET['x'];" in
        match r.Report.findings with
        | [ f ] ->
            Alcotest.(check bool) "no context" true (f.Report.context = None);
            Alcotest.(check (list string)) "no sanitizers" []
              f.Report.sanitizers_applied
        | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs));
  ]

(* heredoc/nowdoc, <?= and ?? reaching the taint engine end to end *)
let frontend_cases =
  [
    expect "heredoc interpolation reaches a SQL sink"
      "$id = $_GET['id'];\n$q = <<<SQL\nSELECT $id\nSQL;\nmysql_query($q);"
      [ "SQLi@5" ];
    expect "nowdoc body stays a literal"
      "$id = $_GET['id'];\n$q = <<<'SQL'\nSELECT $id\nSQL;\nmysql_query($q);"
      [];
    expect "short echo tag is an XSS sink" "?>\n<?= $_GET['x'] ?>" [ "XSS@2" ];
    expect "?? carries taint from its left operand"
      "$a = $_GET['x'] ?? 'd';\necho $a;" [ "XSS@2" ];
    expect "?? carries taint from its right operand"
      "$a = 'd' ?? $_GET['x'];\necho $a;" [ "XSS@2" ];
    expect "?? of two literals is clean" "$a = 'x' ?? 'y';\necho $a;" [];
  ]

(* --flow: the fixpoint walk over the shared CFG; contrast each case with
   its flat counterpart in [flow_cases] *)
let flow_sensitive_cases =
  [
    expect_flow "branch join keeps taint the flat walk overwrites"
      "if ($c) {\n$a = $_GET['x'];\n} else {\n$a = 'safe';\n}\necho $a;"
      [ "XSS@6" ];
    expect_flow "sanitizing in one branch does not cover the other"
      "if ($c) {\n$a = $_GET['x'];\n} else {\n$a = htmlspecialchars($_GET['x']);\n}\necho $a;"
      [ "XSS@6" ];
    expect_flow "loop back-edge re-generates taint at an earlier sink"
      "$w = 'ready';\nwhile ($i < 3) {\necho $w;\n$w = $_GET['x'];\n$i++;\n}"
      [ "XSS@3" ];
    expect_flow "tainted overwrite in an exiting branch never reaches the sink"
      "$x = htmlspecialchars($_GET['a']);\nif ($c) {\n$x = $_GET['a'];\nexit;\n}\necho $x;"
      [];
    expect_flow "sanitized value stays clean under --flow"
      "$x = htmlspecialchars($_GET['a']);\necho $x;" [];
    expect_flow "straight-line taint unchanged under --flow"
      "$a = $_GET['x'];\necho $a;" [ "XSS@2" ];
    expect_flow "sequential overwrite still kills taint"
      "$a = $_GET['x'];\n$a = 'safe';\necho $a;" [];
    (* at top level the flow state is the shared global table itself *)
    expect_flow "top level sees a global written by a called function"
      "function load() {\nglobal $g;\n$g = $_GET['x'];\n}\nload();\necho $g;"
      [ "XSS@6" ];
    expect_flow "a function sees a global joined across two branches"
      "if ($c) {\n$g = $_GET['x'];\n} else {\n$g = 'safe';\n}\nfunction show() {\nglobal $g;\necho $g;\n}\nshow();"
      [ "XSS@8" ];
    Alcotest.test_case "a long top-level walk allocates per statement, not per global"
      `Quick (fun () ->
        (* every statement adds a global: a walk that copied the scope per
           statement would allocate quadratically (hundreds of Mwords) *)
        let n = 2000 in
        let source =
          "<?php\n"
          ^ String.concat ""
              (List.init n (fun i -> Printf.sprintf "$g%d = $_GET['p%d'];\n" i i))
        in
        let file = { Phplang.Project.path = "big.php"; source } in
        ignore (Phplang.Project.parse_file file);
        let project = Phplang.Project.make ~name:"big" [ file ] in
        let opts = { Phpsafe.default_options with Phpsafe.flow_sensitive = true } in
        let w0 = Gc.minor_words () in
        let r = Phpsafe.analyze_project ~opts project in
        let mwords = (Gc.minor_words () -. w0) /. 1e6 in
        Alcotest.(check int) "no findings" 0 (List.length r.Report.findings);
        if mwords >= 5. then
          Alcotest.failf "%d top-level assignments allocated %.1f Mwords (limit 5)"
            n mwords);
  ]

(* --flow findings that only a body's second pass produces: the first pass
   writes state outside the walk's own scope (a global, a property, a
   scope binding) that an earlier statement of the body reads.  The solver
   may stop after one pass only when no such write happened, so each case
   pins what the analyzer reported when every walk ran its confirming
   pass. *)
let replay_cases =
  [
    expect_flow "a function echoes a global before assigning it"
      "function f() {\nglobal $x;\necho $x;\n$x = $_GET['a'];\n}\nf();"
      [ "XSS@3" ];
    expect_flow "a function echoes a static property before assigning it"
      "function f() {\necho C::$v;\nC::$v = $_GET['a'];\n}\nf();"
      [ "XSS@2" ];
    expect_flow "a method reads $this->p before writing it tainted"
      "class C {\npublic $p;\nfunction m() {\necho $this->p;\n$this->p = $_GET['a'];\n}\n}\n$o = new C;\n$o->m();"
      [ "XSS@4" ];
    expect_flow "global $x declared after a use"
      "$x = $_GET['a'];\nf();\nfunction f() {\necho $x;\nglobal $x;\n}"
      [ "XSS@4" ];
    expect_flow "$a =& $b bound after a use"
      "function f() {\n$b = $_GET['x'];\necho $a;\n$a =& $b;\n}\nf();"
      [ "XSS@3" ];
    expect_flow "$o = new C bound after a method call on $o"
      "class C {\nfunction get() {\nreturn $_GET['x'];\n}\n}\nfunction f() {\necho $o->get();\n$o = new C;\n}\nf();"
      [ "XSS@7" ];
    (* at top level the global table is the walk's own state, yet a
       callee's first call writes it from the summary build, which the
       second pass does not repeat: that pass's exit state stands, and the
       uncalled [show] reads a clean [$g] *)
    expect_flow "a global written by a top-level call's summary build"
      "function load() {\nglobal $g;\n$g = $_GET['x'];\n}\nload();\nfunction show() {\nglobal $g;\necho $g;\n}"
      [];
  ]

(* the [--flow] pass budget: a walk that runs out keeps its findings and
   reports its file as budget-exhausted *)
let chain_loop src =
  (* a 12-step assignment chain inside a loop needs more than a dozen
     passes to carry [src] from [$a0] to [$a12] *)
  "while ($k) {\n"
  ^ String.concat ""
      (List.init 12 (fun i -> Printf.sprintf "$a%d = $a%d;\n" (12 - i) (11 - i)))
  ^ "$a0 = " ^ src ^ ";\n}\n"

let with_budget b f =
  Fun.protect ~finally:Budget.reset @@ fun () ->
  Budget.set b;
  f ()

let with_passes n = with_budget { Budget.default with Budget.fixpoint_passes = n }

let status (r : Report.result) path =
  match List.assoc_opt path r.Report.outcomes with
  | Some Report.Analyzed -> "analyzed"
  | Some (Report.Failed reason) -> Report.failure_label reason
  | None -> "missing"

let flow_budget_cases =
  [
    Alcotest.test_case "converged walk: finding, file analyzed" `Quick (fun () ->
        let r = analyze_flow (chain_loop "$_GET['x']" ^ "echo $a12;") in
        Alcotest.(check int) "one XSS" 1 (List.length r.Report.findings);
        Alcotest.(check string) "status" "analyzed" (status r "t.php"));
    Alcotest.test_case "exhausted entry walk keeps findings, reports the file"
      `Quick (fun () ->
        with_passes 3 @@ fun () ->
        let r = analyze_flow ("echo $_GET['y'];\n" ^ chain_loop "$_GET['x']" ^ "echo $a12;") in
        Alcotest.(check int) "the early finding is kept" 1
          (List.length r.Report.findings);
        Alcotest.(check string) "status" "budget_exhausted" (status r "t.php");
        Alcotest.(check int) "one error" 1 r.Report.errors);
    Alcotest.test_case "exhausted summary reports the defining file" `Quick
      (fun () ->
        with_passes 3 @@ fun () ->
        let project =
          Phplang.Project.make ~name:"p"
            [ { Phplang.Project.path = "main.php";
                source = "<?php\necho f($_GET['x']);\n" };
              { Phplang.Project.path = "lib.php";
                source =
                  "<?php\nfunction f($p) {\n"
                  ^ chain_loop "$p"
                  ^ "return $a12;\n}\n" } ]
        in
        let opts = { Phpsafe.default_options with Phpsafe.flow_sensitive = true } in
        let r = Phpsafe.analyze_project ~opts project in
        Alcotest.(check string) "caller" "analyzed" (status r "main.php");
        Alcotest.(check string) "definer" "budget_exhausted" (status r "lib.php"));
    Alcotest.test_case "the flat walk ignores the pass budget" `Quick (fun () ->
        with_passes 3 @@ fun () ->
        let r = analyze (chain_loop "$_GET['x']" ^ "echo $a12;") in
        Alcotest.(check string) "status" "analyzed" (status r "t.php"));
  ]

(* The include budget's verdicts on inputs where the closure walk and the
   LOC sum could disagree about which file or parse they read.  Every
   expected list below is what the analyzer reported before the budget
   read per-file facts from the parse memo. *)
let verdicts (r : Report.result) =
  List.map
    (fun (path, o) ->
      path ^ "="
      ^
      match o with
      | Report.Analyzed -> "analyzed"
      | Report.Failed reason -> Report.failure_label reason)
    r.Report.outcomes

let with_include_budget ~depth ~loc files =
  let opts =
    { Phpsafe.default_options with
      Phpsafe.budget =
        Some
          { Phpsafe.Analyzer.max_include_depth = depth; max_closure_loc = loc } }
  in
  Phpsafe.analyze_project ~opts (Phplang.Project.make ~name:"p" files)

let php path source = { Phplang.Project.path; source }

let with_include_caps ~depth ~files =
  with_budget
    { Budget.default with Budget.include_depth = depth; include_files = files }

let lines prefix n =
  String.concat "" (List.init n (fun i -> Printf.sprintf "$%s%d = %d;\n" prefix i i))

let budget_edge_cases =
  let case name f = Alcotest.test_case name `Quick f in
  [
    case "a path listed twice: LOC of the first file, targets of the last parse"
      (fun () ->
        (* a.php #1 has 10 LOC and no include; #2 has 1 LOC and includes
           b.php (5 LOC); #3 would include c.php but does not parse.  The
           closure follows #2's include and sums #1's LOC: 15 > 12. *)
        let r =
          with_include_budget ~depth:6 ~loc:12
            [ php "a.php" ("<?php\n" ^ lines "a" 9);
              php "a.php" "<?php include 'b.php';";
              php "a.php" "<?php include 'c.php'; $x = ;";
              php "b.php" ("<?php\n" ^ lines "b" 4) ]
        in
        Alcotest.(check (list string)) "verdicts"
          [ "a.php=parse_failure"; "a.php=out_of_memory";
            "a.php=out_of_memory"; "b.php=analyzed" ]
          (verdicts r);
        Alcotest.(check int) "unresolved" 0 r.Report.unresolved_includes);
    case "an include cycle counts each member's LOC once" (fun () ->
        let files =
          [ php "a.php" "<?php include 'b.php';\n$a = 1;\n$b = 2;";
            php "b.php" "<?php include 'a.php';\n$c = 1;\n$d = 2;" ]
        in
        Alcotest.(check (list string)) "6 LOC over a cap of 5"
          [ "a.php=out_of_memory"; "b.php=out_of_memory" ]
          (verdicts (with_include_budget ~depth:6 ~loc:5 files));
        Alcotest.(check (list string)) "6 LOC within a cap of 6"
          [ "a.php=analyzed"; "b.php=analyzed" ]
          (verdicts (with_include_budget ~depth:6 ~loc:6 files));
        with_include_caps ~depth:64 ~files:1 @@ fun () ->
        Alcotest.(check (list string)) "the closure-size safety cap"
          [ "a.php=budget_exhausted"; "b.php=budget_exhausted" ]
          (verdicts (with_include_budget ~depth:6 ~loc:6 files)));
    case "unresolved includes count toward the depth, not the LOC" (fun () ->
        let r =
          with_include_budget ~depth:1 ~loc:2
            [ php "a.php" "<?php include 'wp-load.php'; include 'b.php';";
              php "b.php" "<?php include 'wp-config.php';" ]
        in
        Alcotest.(check (list string)) "verdicts"
          [ "a.php=out_of_memory"; "b.php=analyzed" ]
          (verdicts r);
        Alcotest.(check int) "unresolved" 2 r.Report.unresolved_includes);
    case "an unparsable member adds its LOC but no targets" (fun () ->
        (* bad.php's 3 LOC count (1 + 3 > 3); its include is not followed *)
        let r =
          with_include_budget ~depth:6 ~loc:3
            [ php "main.php" "<?php include 'bad.php';";
              php "bad.php" "<?php\ninclude 'wp-load.php';\n$x = ;" ]
        in
        Alcotest.(check (list string)) "verdicts"
          [ "bad.php=parse_failure"; "main.php=out_of_memory" ]
          (verdicts r);
        Alcotest.(check int) "unresolved" 0 r.Report.unresolved_includes);
    case "one closure over max_closure_loc" (fun () ->
        let r =
          with_include_budget ~depth:6 ~loc:20
            [ php "main.php" "<?php include 'lib.php'; echo $_GET['x'];";
              php "lib.php" ("<?php\n" ^ lines "l" 19);
              php "other.php" "<?php echo $_GET['y'];" ]
        in
        Alcotest.(check (list string)) "verdicts"
          [ "main.php=out_of_memory"; "lib.php=analyzed"; "other.php=analyzed" ]
          (verdicts r);
        Alcotest.(check int) "only other.php's finding" 1
          (List.length r.Report.findings));
    case "the include-depth safety cap" (fun () ->
        with_include_caps ~depth:2 ~files:4096 @@ fun () ->
        let r =
          with_include_budget ~depth:6 ~loc:40_000
            [ php "a.php" "<?php include 'b.php';";
              php "b.php" "<?php include 'c.php';";
              php "c.php" "<?php include 'd.php';";
              php "d.php" "<?php $x = 1;" ]
        in
        Alcotest.(check (list string)) "verdicts"
          [ "a.php=budget_exhausted"; "b.php=analyzed"; "c.php=analyzed";
            "d.php=analyzed" ]
          (verdicts r));
  ]

(* Each file's include targets and LOC are computed once per parse-memo
   entry and live as long as it does.  Every case tags its sources so its
   entries are new to the process-wide memo. *)
let facts_computed () = Obs.counter "phplang.parse_cache.facts"

let facts_project tag =
  Phplang.Project.make ~name:"facts"
    [ php "main.php"
        (Printf.sprintf "<?php /* %s */\ninclude 'lib.php';\necho f($_GET['x']);\n" tag);
      php "lib.php"
        (Printf.sprintf "<?php /* %s */\nfunction f($p) {\n  $q = $p;\n  return $q;\n}\n" tag);
      php "other.php" (Printf.sprintf "<?php /* %s */\necho $_POST['y'];\n" tag) ]

(* main.php's closure (main + lib, 7 LOC) is over the cap, the others not *)
let tight = { Phpsafe.Analyzer.max_include_depth = 6; max_closure_loc = 6 }

let analyze_tight p =
  Phpsafe.analyze_project
    ~opts:{ Phpsafe.default_options with Phpsafe.budget = Some tight }
    p

let memo = Phplang.Project.Parse_cache.shared

let memo_key (f : Phplang.Project.file) =
  (f.Phplang.Project.path, Phplang.Digest.string f.Phplang.Project.source)

let facts_cases =
  let case name f = Alcotest.test_case name `Quick f in
  [
    case "a warm re-analysis computes no facts" (fun () ->
        let p = facts_project "warm" in
        let c0 = facts_computed () in
        let cold = analyze_tight p in
        Alcotest.(check int) "one per file" 3 (facts_computed () - c0);
        let warm = analyze_tight p in
        Alcotest.(check int) "none on the warm run" 3 (facts_computed () - c0);
        Alcotest.(check (list string)) "verdicts"
          [ "main.php=out_of_memory"; "lib.php=analyzed"; "other.php=analyzed" ]
          (verdicts warm);
        Alcotest.(check string) "same report" (Report.to_json cold)
          (Report.to_json warm));
    case "a warm re-analysis computes no digest" (fun () ->
        let p = facts_project "digest" in
        let digests () = Obs.counter "phplang.parse_cache.digests" in
        let d0 = digests () in
        let cold = analyze_tight p in
        Alcotest.(check int) "one per file" 3 (digests () - d0);
        (* the sources of a re-sent project are equal, not the same *)
        let resent =
          Phplang.Project.make ~name:"facts"
            (List.map
               (fun (f : Phplang.Project.file) ->
                 php f.Phplang.Project.path
                   (Bytes.to_string (Bytes.of_string f.Phplang.Project.source)))
               p.Phplang.Project.files)
        in
        let warm = analyze_tight resent in
        Alcotest.(check int) "none on the warm run" 3 (digests () - d0);
        Alcotest.(check string) "same report" (Report.to_json cold)
          (Report.to_json warm));
    case "with the memo off, facts are computed per run" (fun () ->
        let p = facts_project "off" in
        let set = Phplang.Project.Parse_cache.set_enabled in
        Fun.protect ~finally:(fun () -> set true) @@ fun () ->
        set false;
        let c0 = facts_computed () in
        let first = analyze_tight p in
        let second = analyze_tight p in
        Alcotest.(check int) "three per run" 6 (facts_computed () - c0);
        Alcotest.(check (list string)) "verdicts" (verdicts first)
          (verdicts second));
    case "a seeded entry gives a parsed entry's verdicts and report" (fun () ->
        let p = facts_project "seeded" in
        let parsed = analyze_tight p in
        List.iter
          (fun (f : Phplang.Project.file) ->
            Phplang.Project.Parse_cache.forget memo (memo_key f);
            Phplang.Project.Parse_cache.seed memo (memo_key f)
              (Ok
                 (Phplang.Parser.parse_source ~file:f.Phplang.Project.path
                    f.Phplang.Project.source)))
          p.Phplang.Project.files;
        let c0 = facts_computed ()
        and m0 = Phplang.Project.Parse_cache.misses memo in
        let seeded = analyze_tight p in
        Alcotest.(check int) "no parse" 0
          (Phplang.Project.Parse_cache.misses memo - m0);
        Alcotest.(check int) "filled on demand" 3 (facts_computed () - c0);
        Alcotest.(check (list string)) "verdicts" (verdicts parsed)
          (verdicts seeded);
        Alcotest.(check string) "phpsafe-report/1 bytes" (Report.to_json parsed)
          (Report.to_json seeded));
    case "forget and clear drop the facts with their entry" (fun () ->
        let p = facts_project "evict" in
        ignore (analyze_tight p);
        let c0 = facts_computed () in
        Phplang.Project.Parse_cache.forget memo
          (memo_key (List.hd p.Phplang.Project.files));
        let after_forget = analyze_tight p in
        Alcotest.(check int) "the forgotten file's facts" 1
          (facts_computed () - c0);
        Phplang.Project.Parse_cache.clear memo;
        let after_clear = analyze_tight p in
        Alcotest.(check int) "every file's facts" 4 (facts_computed () - c0);
        Alcotest.(check (list string)) "verdicts" (verdicts after_forget)
          (verdicts after_clear));
    case "a 2-domain pool gives the --jobs 1 results" (fun () ->
        let p = facts_project "pool" in
        let flow_contexts =
          { Phpsafe.default_options with
            Phpsafe.budget = Some tight;
            flow_sensitive = true;
            infer_contexts = true }
        in
        let runs =
          [ (fun () -> Report.to_json (analyze_tight p));
            (fun () ->
              Report.to_json (Phpsafe.analyze_project_so ~opts:flow_contexts p)) ]
        in
        let sequential = List.map (fun run -> run ()) runs in
        (* from a cold memo, both domains race to fill the same entries *)
        Phplang.Project.Parse_cache.clear memo;
        let pool = Sched.create ~size:2 () in
        let parallel =
          Sched.map ~chunk:1 ~pool (fun run -> run ()) (runs @ runs @ runs)
        in
        Alcotest.(check (list string)) "every run"
          (sequential @ sequential @ sequential)
          parallel);
  ]

(* Model construction (§III.B) hoists functions, classes and methods from
   any statement nesting, but not from closure bodies, and the first
   definition of a name in analyzable-file order wins.  The uncalled-
   function pass walks that same registry. *)
let hoist_findings p =
  (Phpsafe.analyze_project p).Report.findings
  |> List.map (fun (f : Report.finding) ->
         Printf.sprintf "%s@%s:%d"
           (Vuln.kind_to_string f.Report.kind)
           f.Report.sink_pos.Phplang.Ast.file f.Report.sink_pos.Phplang.Ast.line)
  |> List.sort compare

let hoisting_cases =
  let first_wins name files expected =
    Alcotest.test_case name `Quick (fun () ->
        Alcotest.(check (list string)) name expected
          (hoist_findings (Phplang.Project.make ~name:"hoist" files)))
  in
  let echo_def = php "echo_def.php" "<?php\nfunction first($v) {\n  echo $v;\n}\n"
  and calls_def =
    php "calls_def.php"
      "<?php\nfunction first($v) {\n  return 1;\n}\nfirst($_GET['x']);\n"
  in
  List.concat
    [ expect_both "a function defined inside an if branch is hoisted"
        "branch($_GET['x']);\nif ($c) {\n  function branch($v) {\n    echo $v;\n  }\n}"
        [ "XSS@4" ];
      expect_both "a function defined inside a method is hoisted"
        "class Outer {\n  function m() {\n    function inner($v) {\n      echo $v;\n    }\n  }\n}\ninner($_GET['x']);"
        [ "XSS@4" ];
      expect_both "a function defined inside a closure body is not hoisted"
        "$g = function () {\n  function hidden($v) {\n    echo $v;\n  }\n};\nhidden($_GET['x']);"
        [];
      [ first_wins "the earlier file's definition wins" [ echo_def; calls_def ]
          [ "XSS@echo_def.php:3" ];
        first_wins "the earlier file's definition wins (reversed)"
          [ calls_def; echo_def ] [] ];
      expect_both "the uncalled-function pass sees the hoisted registry"
        "if ($c) {\n  function uncalled_u() {\n    echo $_GET['a'];\n  }\n}\n\
         function outer_k() {\n  class K {\n    function m() {\n      echo $_GET['b'];\n    }\n  }\n}\n\
         $g = function () {\n  function uncalled_hid() {\n    echo $_GET['c'];\n  }\n};"
        [ "XSS@3"; "XSS@9" ];
      [ expect_with
          { Phpsafe.default_options with Phpsafe.analyze_uncalled = false }
          "without the uncalled-function pass none of them is walked"
          "if ($c) {\n  function uncalled_u2() {\n    echo $_GET['a'];\n  }\n}\n\
           function outer_k2() {\n  class K2 {\n    function m() {\n      echo $_GET['b'];\n    }\n  }\n}"
          [] ] ]

let () =
  Alcotest.run "phpsafe"
    [ ("data flow (§III.C)", flow_cases);
      ("front-end gaps (heredoc, <?=, ??)", frontend_cases);
      ("flow-sensitive walk (--flow)", flow_sensitive_cases);
      ("second-pass findings (--flow)", replay_cases);
      ("fixpoint pass budget (--flow)", flow_budget_cases);
      ("include budget verdicts", budget_edge_cases);
      ("per-file facts in the parse memo", facts_cases);
      ("hoisting (§III.B)", hoisting_cases);
      ("sanitizers and reverts (§III.A)", sanitizer_cases);
      ("inter-procedural and summaries", interproc_cases);
      ("OOP support (§III.E)", oop_cases);
      ("projects, includes, budget", project_cases);
      ("references (=& aliasing)", reference_cases);
      ("option flags (ablation switches)", option_cases);
      ("sink contexts (--contexts)", context_cases) ]
