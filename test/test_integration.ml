(** End-to-end integration: run the full three-tool evaluation on both
    corpus versions and assert the headline paper results — Table I counts,
    the Fig. 2 unions, the §V.A OOP detections, §V.D inertia and §V.E
    robustness.  These are the reproduction's acceptance tests. *)

open Secflow

(* the evaluations are expensive; compute them once *)
let ev2012 = lazy (Evalkit.Runner.evaluate Corpus.Plan.V2012)
let ev2014 = lazy (Evalkit.Runner.evaluate Corpus.Plan.V2014)

let metrics ev tool kind =
  let c = Evalkit.Runner.classified_for (Lazy.force ev) tool in
  Evalkit.Matching.metrics_for ?kind ~union:(Lazy.force ev).Evalkit.Runner.ev_union c

let case name f = Alcotest.test_case name `Quick f

let check_tp_fp name ev tool kind ~tp ~fp =
  case name (fun () ->
      let m = metrics ev tool kind in
      Alcotest.(check int) (name ^ " TP") tp m.Evalkit.Metrics.tp;
      Alcotest.(check int) (name ^ " FP") fp m.Evalkit.Metrics.fp)

let xss = Some Vuln.Xss
let sqli = Some Vuln.Sqli

let table1_cases =
  [
    (* XSS block of Table I *)
    check_tp_fp "phpSAFE XSS 2012" ev2012 "phpSAFE" xss ~tp:307 ~fp:63;
    check_tp_fp "phpSAFE XSS 2014" ev2014 "phpSAFE" xss ~tp:374 ~fp:57;
    check_tp_fp "RIPS XSS 2012" ev2012 "RIPS" xss ~tp:134 ~fp:79;
    check_tp_fp "RIPS XSS 2014" ev2014 "RIPS" xss ~tp:288 ~fp:79;
    check_tp_fp "Pixy XSS 2012" ev2012 "Pixy" xss ~tp:50 ~fp:187;
    check_tp_fp "Pixy XSS 2014" ev2014 "Pixy" xss ~tp:20 ~fp:208;
    (* SQLi block *)
    check_tp_fp "phpSAFE SQLi 2012" ev2012 "phpSAFE" sqli ~tp:8 ~fp:2;
    check_tp_fp "phpSAFE SQLi 2014" ev2014 "phpSAFE" sqli ~tp:9 ~fp:5;
    check_tp_fp "RIPS SQLi 2012" ev2012 "RIPS" sqli ~tp:0 ~fp:0;
    check_tp_fp "RIPS SQLi 2014" ev2014 "RIPS" sqli ~tp:0 ~fp:1;
    check_tp_fp "Pixy SQLi both" ev2012 "Pixy" sqli ~tp:0 ~fp:0;
    case "tool ranking holds (phpSAFE > RIPS > Pixy on F-score)" (fun () ->
        let f ev tool =
          Evalkit.Metrics.f_score (metrics ev tool None)
        in
        List.iter
          (fun ev ->
            Alcotest.(check bool) "phpSAFE > RIPS" true (f ev "phpSAFE" > f ev "RIPS");
            Alcotest.(check bool) "RIPS > Pixy" true (f ev "RIPS" > f ev "Pixy"))
          [ ev2012; ev2014 ]);
    case "no stray (unplanned) false positives anywhere" (fun () ->
        List.iter
          (fun ev ->
            List.iter
              (fun (c : Evalkit.Matching.classified) ->
                Alcotest.(check int)
                  (c.Evalkit.Matching.cl_tool ^ " strays")
                  0
                  (List.length c.Evalkit.Matching.cl_stray_fp))
              (Lazy.force ev).Evalkit.Runner.ev_classified)
          [ ev2012; ev2014 ]);
  ]

let figure2_cases =
  [
    case "distinct detected vulnerabilities: 394 then 586 (+~50%)" (fun () ->
        let u12 = List.length (Lazy.force ev2012).Evalkit.Runner.ev_union in
        let u14 = List.length (Lazy.force ev2014).Evalkit.Runner.ev_union in
        Alcotest.(check int) "2012 union" 394 u12;
        Alcotest.(check int) "2014 union" 586 u14);
    case "some vulnerabilities escape every tool (empty circle)" (fun () ->
        let ev = Lazy.force ev2012 in
        let get name = Evalkit.Runner.classified_for ev name in
        let v =
          Evalkit.Venn.compute
            ~all_real:(Corpus.real_vulns ev.Evalkit.Runner.ev_corpus)
            ~phpsafe:(get "phpSAFE") ~rips:(get "RIPS") ~pixy:(get "Pixy")
        in
        Alcotest.(check int) "hidden 2012" 6 v.Evalkit.Venn.none;
        Alcotest.(check bool) "every tool has unique detections" true
          (v.Evalkit.Venn.only_phpsafe > 0 && v.Evalkit.Venn.only_rips > 0
           && v.Evalkit.Venn.only_pixy > 0));
  ]

let oop_cases =
  [
    case "phpSAFE OOP detections: 151 in 10 plugins, then 179 in 7" (fun () ->
        let module SS = Set.Make (String) in
        let count ev =
          let c = Evalkit.Runner.classified_for (Lazy.force ev) "phpSAFE" in
          let oop = List.filter Corpus.Gt.is_oop_wordpress c.Evalkit.Matching.cl_tp in
          let plugins =
            SS.cardinal
              (SS.of_list
                 (List.map (fun (s : Corpus.Gt.seed) -> s.Corpus.Gt.plugin) oop))
          in
          (List.length oop, plugins)
        in
        Alcotest.(check (pair int int)) "2012" (151, 10) (count ev2012);
        Alcotest.(check (pair int int)) "2014" (179, 7) (count ev2014));
    case "RIPS and Pixy find zero OOP vulnerabilities" (fun () ->
        List.iter
          (fun tool ->
            List.iter
              (fun ev ->
                let c = Evalkit.Runner.classified_for (Lazy.force ev) tool in
                Alcotest.(check int) (tool ^ " oop") 0
                  (List.length
                     (List.filter Corpus.Gt.is_oop_wordpress
                        c.Evalkit.Matching.cl_tp)))
              [ ev2012; ev2014 ])
          [ "RIPS"; "Pixy" ]);
  ]

let inertia_robustness_cases =
  [
    case "inertia: ~40% of 2014 vulnerabilities persisted from 2012" (fun () ->
        let t =
          Evalkit.Inertia.compute
            ~union_2012:(Lazy.force ev2012).Evalkit.Runner.ev_union
            ~union_2014:(Lazy.force ev2014).Evalkit.Runner.ev_union
        in
        Alcotest.(check int) "persisted" 234 t.Evalkit.Inertia.persisted;
        Alcotest.(check bool) "ratio ~0.40" true
          (t.Evalkit.Inertia.persisted_ratio > 0.35
           && t.Evalkit.Inertia.persisted_ratio < 0.45);
        Alcotest.(check bool) "easy share ~24%" true
          (t.Evalkit.Inertia.persisted_easy_ratio > 0.18
           && t.Evalkit.Inertia.persisted_easy_ratio < 0.30));
    case "robustness: phpSAFE fails 1 file in 2012 and 3 in 2014" (fun () ->
        let failed ev =
          (Evalkit.Robustness.of_run
             (Evalkit.Runner.run_for (Lazy.force ev) "phpSAFE"))
            .Evalkit.Robustness.rb_failed_files
        in
        Alcotest.(check int) "2012" 1 (failed ev2012);
        Alcotest.(check int) "2014" 3 (failed ev2014));
    case "robustness: RIPS never fails a file" (fun () ->
        List.iter
          (fun ev ->
            let rb =
              Evalkit.Robustness.of_run
                (Evalkit.Runner.run_for (Lazy.force ev) "RIPS")
            in
            Alcotest.(check int) "failed" 0 rb.Evalkit.Robustness.rb_failed_files)
          [ ev2012; ev2014 ]);
    case "robustness: Pixy fails OOP files, more in 2014" (fun () ->
        let failed ev =
          (Evalkit.Robustness.of_run
             (Evalkit.Runner.run_for (Lazy.force ev) "Pixy"))
            .Evalkit.Robustness.rb_failed_files
        in
        Alcotest.(check bool) "many failures" true (failed ev2012 > 10);
        Alcotest.(check bool) "grows over time" true (failed ev2014 > failed ev2012));
    case "corpus sizes match §V.E" (fun () ->
        let size ev =
          Evalkit.Robustness.corpus_size (Lazy.force ev).Evalkit.Runner.ev_corpus
        in
        Alcotest.(check int) "2012 files" 266 (size ev2012).Evalkit.Robustness.cs_files;
        Alcotest.(check int) "2014 files" 356 (size ev2014).Evalkit.Robustness.cs_files);
  ]

let pattern_report_cases =
  [
    case "per-pattern breakdown matches the calibration plan" (fun () ->
        let rows = Evalkit.Pattern_report.compute (Lazy.force ev2012) in
        let get name =
          List.find
            (fun (r : Evalkit.Pattern_report.row) ->
              r.Evalkit.Pattern_report.pr_pattern = name)
            rows
        in
        let by_tool row tool =
          List.assoc tool row.Evalkit.Pattern_report.pr_by_tool
        in
        (* wpdb flows: phpSAFE-only, all 143 *)
        let wpdb = get "wpdb-oop-xss" in
        Alcotest.(check int) "wpdb seeded" 143 wpdb.Evalkit.Pattern_report.pr_seeded;
        Alcotest.(check int) "wpdb phpSAFE" 143 (by_tool wpdb "phpSAFE");
        Alcotest.(check int) "wpdb RIPS" 0 (by_tool wpdb "RIPS");
        Alcotest.(check int) "wpdb Pixy" 0 (by_tool wpdb "Pixy");
        (* register_globals: Pixy-only *)
        let rg = get "register-globals-echo" in
        Alcotest.(check int) "rg Pixy" 24 (by_tool rg "Pixy");
        Alcotest.(check int) "rg phpSAFE" 0 (by_tool rg "phpSAFE");
        (* direct echo: RIPS sees all 75, phpSAFE misses the deep-file 40 *)
        let direct = get "direct-echo" in
        Alcotest.(check int) "direct RIPS" 75 (by_tool direct "RIPS");
        Alcotest.(check int) "direct phpSAFE" 35 (by_tool direct "phpSAFE");
        (* hidden vulnerabilities stay hidden *)
        let hidden = get "dynamic-hidden" in
        List.iter
          (fun tool -> Alcotest.(check int) ("hidden " ^ tool) 0 (by_tool hidden tool))
          [ "phpSAFE"; "RIPS"; "Pixy" ];
        (* true negatives stay silent for every tool *)
        List.iter
          (fun name ->
            let row = get name in
            Alcotest.(check bool) (name ^ " is a trap") true
              row.Evalkit.Pattern_report.pr_is_trap;
            List.iter
              (fun tool ->
                Alcotest.(check int) (name ^ " " ^ tool) 0 (by_tool row tool))
              [ "phpSAFE"; "RIPS"; "Pixy" ])
          [ "trap-prepare-ok"; "trap-sanitized-ok" ]);
  ]

let ablation_cases =
  [
    case "E8 ablation: each feature carries its expected weight" (fun () ->
        let ev = Lazy.force ev2012 in
        let rows = Evalkit.Ablation.run ev in
        let get name =
          List.find
            (fun (r : Evalkit.Ablation.row) ->
              String.length r.Evalkit.Ablation.ab_variant >= String.length name
              && String.sub r.Evalkit.Ablation.ab_variant 0 (String.length name)
                 = name)
            rows
        in
        let full = get "full" in
        Alcotest.(check int) "full matches Table I" 315
          full.Evalkit.Ablation.ab_metrics.Evalkit.Metrics.tp;
        (* no WordPress profile: every OOP detection disappears *)
        let no_wp = get "no-wordpress-profile" in
        Alcotest.(check int) "no-wp OOP TPs" 0 no_wp.Evalkit.Ablation.ab_oop_tp;
        Alcotest.(check bool) "no-wp loses many TPs" true
          (no_wp.Evalkit.Ablation.ab_metrics.Evalkit.Metrics.tp < 200);
        (* skipping uncalled functions loses hook vulnerabilities *)
        let no_unc = get "no-uncalled-analysis" in
        Alcotest.(check bool) "uncalled analysis matters" true
          (no_unc.Evalkit.Ablation.ab_metrics.Evalkit.Metrics.tp
           < full.Evalkit.Ablation.ab_metrics.Evalkit.Metrics.tp);
        (* per-file mode recovers the memory-failed file *)
        let no_inc = get "no-include-resolution" in
        Alcotest.(check int) "no failed files" 0
          no_inc.Evalkit.Ablation.ab_failed_files;
        (* dropping revert modelling trades FPs for TPs *)
        let no_rev = get "no-revert-modelling" in
        Alcotest.(check bool) "fewer FPs" true
          (no_rev.Evalkit.Ablation.ab_metrics.Evalkit.Metrics.fp
           < full.Evalkit.Ablation.ab_metrics.Evalkit.Metrics.fp);
        Alcotest.(check bool) "fewer TPs too" true
          (no_rev.Evalkit.Ablation.ab_metrics.Evalkit.Metrics.tp
           < full.Evalkit.Ablation.ab_metrics.Evalkit.Metrics.tp);
        (* the future-work guard extension: strictly better precision,
           identical recall *)
        let guard = get "guard-aware" in
        Alcotest.(check int) "same TPs" 315
          guard.Evalkit.Ablation.ab_metrics.Evalkit.Metrics.tp;
        Alcotest.(check bool) "fewer FPs" true
          (guard.Evalkit.Ablation.ab_metrics.Evalkit.Metrics.fp
           < full.Evalkit.Ablation.ab_metrics.Evalkit.Metrics.fp));
  ]

(* Cross-analyzer agreement: single-file procedural inputs inside the
   documented overlap of all three tools (superglobal sources; echo, print
   and mysql_query sinks; htmlspecialchars, addslashes, intval, sprintf
   and basename; user functions called from top level; PHP operators; no
   branches, uninitialized reads, OOP, include resolution or WordPress
   API).  There each tool must report the same (kind, line) set. *)
let agreement_cases =
  let keys (r : Report.result) =
    List.map
      (fun (f : Report.finding) ->
        Printf.sprintf "%s@%d" (Vuln.kind_to_string f.Report.kind)
          (f.Report.sink_pos.Phplang.Ast.line - 1))
      r.Report.findings
    |> List.sort_uniq compare
  in
  let row name src expected =
    case name (fun () ->
        let source = "<?php\n" ^ src in
        List.iter
          (fun (tool, analyze) ->
            Alcotest.(check (list string)) tool
              (List.sort compare expected)
              (keys (analyze ~file:"t.php" source)))
          [ ("phpSAFE", fun ~file s -> Phpsafe.analyze_source ~file s);
            ("RIPS", Rips.analyze_source); ("Pixy", Pixy.analyze_source) ])
  in
  [
    row "direct echo" "echo $_GET['x'];" [ "XSS@1" ];
    row "print" "print $_POST['x'];" [ "XSS@1" ];
    row "concatenation" "$a = 'Hi ' . $_GET['n'];\necho $a;" [ "XSS@2" ];
    row "interpolation into mysql_query"
      "$id = $_GET['id'];\nmysql_query(\"SELECT * FROM t WHERE id = $id\");"
      [ "SQLi@2" ];
    row "htmlspecialchars" "echo htmlspecialchars($_GET['x']);" [];
    row "addslashes then echo" "$a = addslashes($_GET['x']);\necho $a;"
      [ "XSS@2" ];
    row "intval into both sinks"
      "$n = intval($_GET['n']);\necho $n;\nmysql_query(\"SELECT $n\");" [];
    row "sprintf" "$q = sprintf('SELECT %s', $_GET['q']);\nmysql_query($q);"
      [ "SQLi@2" ];
    row "identity function, tainted and literal arguments"
      "function id($v) { return $v; }\necho id($_GET['x']);\necho id('lit');"
      [ "XSS@2" ];
    row "sink inside a called function"
      "function show($m) {\necho $m;\n}\nshow($_COOKIE['c']);" [ "XSS@2" ];
    row "overwrite with a literal" "$a = $_GET['x'];\n$a = 'safe';\necho $a;" [];
    row "non-concat compound assignment" "$a = 1;\n$a += $_GET['x'];\necho $a;"
      [];
    row "one function called with different taint kinds"
      "function f($a) { return $a; }\n$y = addslashes($_GET['b']);\n\
       $z = $_GET['c'];\necho f($y);\nmysql_query(f($z));"
      [ "XSS@4"; "SQLi@5" ];
    (* how each operator carries a value ({!Phplang.Ast.value_flow}) *)
    row "@ keeps taint" "echo @$_GET['x'];" [ "XSS@1" ];
    row "(string) keeps taint" "echo (string)$_GET['x'];" [ "XSS@1" ];
    row "(array) keeps taint" "$a = (array)$_GET['x'];\necho $a;" [ "XSS@2" ];
    row "(int) clears taint" "echo (int)$_GET['x'];" [];
    row "?: with a tainted branch" "$c = 1;\necho $c ? $_GET['x'] : 'no';"
      [ "XSS@2" ];
    row "?: with a tainted condition" "echo $_GET['c'] ? 'a' : 'b';" [];
    row "short ?:" "echo $_GET['x'] ?: 'd';" [ "XSS@1" ];
    row "??" "echo $_GET['x'] ?? 'd';" [ "XSS@1" ];
    row "braced interpolation" "$a = $_GET['x'];\necho \"pre{$a}post\";"
      [ "XSS@2" ];
    row "array literal value" "$a = array('k' => $_GET['x']);\necho $a;"
      [ "XSS@2" ];
    row "array literal key" "$a = array($_GET['k'] => 'v');\necho $a;" [];
    row "tainted index only" "$arr = array('a');\necho $arr[$_GET['i']];" [];
    row "arithmetic" "echo $_GET['x'] + 1;" [];
    row "comparison" "echo $_GET['x'] == 1;" [];
    row "!" "echo !$_GET['x'];" [];
    row "unary minus" "echo -$_GET['x'];" [];
    row "isset" "echo isset($_GET['x']);" [];
    row "empty" "echo empty($_GET['x']);" [];
    row "?? inside a concatenated query"
      "mysql_query(\"SELECT * FROM t WHERE id = \" . ($_GET['q'] ?? '1'));"
      [ "SQLi@1" ];
    (* print returns 1 and include the included file's value: both clean *)
    row "print's value" "$a = print $_GET['x'];\necho $a;" [ "XSS@1" ];
    row "include's value" "$a = include basename($_GET['f']);\necho $a;" [];
    row "outer quote inside a braced interpolation"
      "echo \"{$_GET[\"x\"]}\";" [ "XSS@1" ];
  ]

let () =
  Alcotest.run "integration"
    [ ("table I", table1_cases);
      ("figure 2", figure2_cases);
      ("§V.A OOP", oop_cases);
      ("§V.D/§V.E", inertia_robustness_cases);
      ("pattern breakdown", pattern_report_cases);
      ("E8 ablation", ablation_cases);
      ("cross-analyzer agreement", agreement_cases) ]
