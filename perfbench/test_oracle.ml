(* Oracle self-check: the ground-truth check the benchmark applies to every
   op must accept a correct report and reject a report with one true
   positive dropped or one stray finding added — each such op counts as
   failed. *)

open Perfbench

let corpus = lazy (Corpus.generate Corpus.Plan.V2012)

(* a plugin with at least one expected phpSAFE detection, its expectation
   and phpSAFE's actual result on it *)
let fixture =
  lazy
    (let corpus = Lazy.force corpus in
     let expect = Oracle.expect Oracle.Phpsafe corpus in
     let p =
       List.find
         (fun (p : Corpus.Catalog.plugin_output) ->
           not
             (Oracle.SS.is_empty
                (Hashtbl.find expect p.Corpus.Catalog.po_name).Oracle.ex_ids))
         corpus.Corpus.plugins
     in
     let tool =
       { Passes.name = "phpsafe";
         analyze = (fun p -> Phpsafe.analyze_project p);
         expect }
     in
     (p, tool, Phpsafe.analyze_project p.Corpus.Catalog.po_project))

let failed_ops result =
  let p, tool, _ = Lazy.force fixture in
  let t = Harness.tally () in
  Passes.record t tool p result;
  t.Harness.failed

(* every finding on the sink of one detected real vulnerability removed *)
let dropped_tp (r : Secflow.Report.result) =
  let p, _, _ = Lazy.force fixture in
  let keys = Secflow.Report.keys r in
  match
    List.find_opt
      (fun s ->
        Corpus.Gt.is_real s
        && Secflow.Report.Key_set.mem (Corpus.Gt.key_of s) keys)
      p.Corpus.Catalog.po_seeds
  with
  | None -> Alcotest.fail "fixture has no true positive"
  | Some s ->
      let k = Corpus.Gt.key_of s in
      { r with
        Secflow.Report.findings =
          List.filter
            (fun f -> Secflow.Report.compare_key (Secflow.Report.key_of_finding f) k <> 0)
            r.Secflow.Report.findings }

let with_stray (r : Secflow.Report.result) =
  match r.Secflow.Report.findings with
  | [] -> Alcotest.fail "fixture has no finding"
  | f :: _ ->
      let pos = { f.Secflow.Report.sink_pos with Phplang.Ast.line = 1 } in
      { r with
        Secflow.Report.findings =
          { f with Secflow.Report.sink_pos = pos } :: r.Secflow.Report.findings }

let test_accepts () =
  let _, _, r = Lazy.force fixture in
  Alcotest.(check int) "correct report passes" 0 (failed_ops r)

let test_dropped () =
  let _, _, r = Lazy.force fixture in
  Alcotest.(check int) "one TP dropped fails" 1 (failed_ops (dropped_tp r))

let test_stray () =
  let _, _, r = Lazy.force fixture in
  Alcotest.(check int) "one stray finding fails" 1 (failed_ops (with_stray r))

let test_json () =
  let p, tool, r = Lazy.force fixture in
  let ex = Hashtbl.find tool.Passes.expect p.Corpus.Catalog.po_name in
  let json r = Secflow.Report.to_json ~tool:"phpSAFE" r in
  Alcotest.(check bool) "rendered report passes" true
    (Oracle.check_json ex (json r));
  Alcotest.(check bool) "rendered report, TP dropped, fails" false
    (Oracle.check_json ex (json (dropped_tp r)));
  Alcotest.(check bool) "rendered report, stray added, fails" false
    (Oracle.check_json ex (json (with_stray r)));
  Alcotest.(check bool) "malformed report fails" false
    (Oracle.check_json ex "{\"findings\": [")

let test_table_i () =
  List.iter
    (fun version ->
      let corpus =
        if version = Corpus.Plan.V2012 then Lazy.force corpus
        else Corpus.generate version
      in
      List.iter
        (fun tool ->
          Alcotest.(check bool)
            (Oracle.tool_name tool ^ " expectation matches Table I")
            true
            (Oracle.agrees_with_table_i tool version (Oracle.expect tool corpus)))
        [ Oracle.Phpsafe; Oracle.Rips; Oracle.Pixy ])
    [ Corpus.Plan.V2012; Corpus.Plan.V2014 ]

let () =
  Alcotest.run "perfbench-oracle"
    [ ("oracle",
       [ Alcotest.test_case "accepts a correct report" `Quick test_accepts;
         Alcotest.test_case "one TP dropped is a failed op" `Quick test_dropped;
         Alcotest.test_case "one stray finding is a failed op" `Quick test_stray;
         Alcotest.test_case "JSON reports" `Quick test_json;
         Alcotest.test_case "label expectations reproduce Table I" `Quick
           test_table_i ]) ]
