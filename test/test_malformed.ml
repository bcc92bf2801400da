(** Malformed-input coverage: unterminated strings/heredocs, nesting at and
    past the parser fuel limit, empty and binary files.  Every layer must
    answer with a structured value — [Lexer.Error]/[Parse_error] from the
    front end is acceptable only below {!Phplang.Project.parse_file}; from
    there up it is [Error _] results and [Failed _] outcomes, never an
    escaped exception. *)

open Phplang

let case = Alcotest.test_case

let file path source = { Project.path; source }

(* Run [f] with a temporarily tightened budget, restoring the default even
   on failure — the budget is process-global state. *)
let with_budget b f =
  Secflow.Budget.set b;
  Fun.protect ~finally:Secflow.Budget.reset f

let nested_expr depth = "<?php $x = " ^ String.make depth '(' ^ "1"
                        ^ String.make depth ')' ^ ";"

let malformed_sources =
  [
    ("unterminated double-quoted string", "<?php $x = \"never closed");
    ("unterminated single-quoted string", "<?php $x = 'never closed");
    ("unterminated heredoc", "<?php $x = <<<EOT\nno terminator here");
    ("unterminated block comment", "<?php /* no end");
    ("empty file", "");
    ("binary blob", "\x00\x01\x02\xff\xfe<?php\x00$x =");
    ("lone open tag then garbage", "<?php $$$ %%% @@@");
  ]

let lexer_cases =
  List.map
    (fun (name, src) ->
      case ("lexer: " ^ name) `Quick (fun () ->
          (* tokenizing either succeeds or raises the lexer's own error —
             anything else (Stack_overflow, Failure, ...) is a bug *)
          match Lexer.tokenize src with
          | _ -> ()
          | exception Lexer.Error (_, _) -> ()
          | exception exn ->
              Alcotest.failf "lexer escaped with %s" (Printexc.to_string exn)))
    malformed_sources

let parser_cases =
  List.map
    (fun (name, src) ->
      case ("parse_file: " ^ name) `Quick (fun () ->
          match Project.parse_file (file "m.php" src) with
          | Ok _ -> ()
          | Error (Project.Syntax _) -> ()
          | Error (Project.Over_budget _) -> ()
          | exception exn ->
              Alcotest.failf "parse_file escaped with %s"
                (Printexc.to_string exn)))
    malformed_sources

let fuel_cases =
  [
    case "nesting under the fuel limit parses" `Quick (fun () ->
        match Project.parse_file (file "ok.php" (nested_expr 100)) with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "rejected: %s" (Project.parse_error_message e));
    case "nesting past the fuel limit is Over_budget, not a crash" `Quick
      (fun () ->
        let depth = Parser.nesting_limit () + 64 in
        match Project.parse_file (file "deep.php" (nested_expr depth)) with
        | Error (Project.Over_budget _) -> ()
        | Ok _ -> Alcotest.fail "deep nesting unexpectedly parsed"
        | Error (Project.Syntax msg) ->
            Alcotest.failf "expected Over_budget, got Syntax: %s" msg);
    case "prefix-operator chains hit the fuel too" `Quick (fun () ->
        let depth = Parser.nesting_limit () + 64 in
        let src = "<?php $x = " ^ String.make depth '!' ^ "1;" in
        match Project.parse_file (file "bangs.php" src) with
        | Error (Project.Over_budget _) -> ()
        | Ok _ -> Alcotest.fail "unexpectedly parsed"
        | Error (Project.Syntax msg) ->
            Alcotest.failf "expected Over_budget, got Syntax: %s" msg);
    case "the budget flag tightens the fuel" `Quick (fun () ->
        with_budget
          { Secflow.Budget.default with Secflow.Budget.parse_depth = 32 }
          (fun () ->
            match Project.parse_file (file "b32.php" (nested_expr 100)) with
            | Error (Project.Over_budget _) -> ()
            | Ok _ -> Alcotest.fail "should exceed the tightened budget"
            | Error (Project.Syntax msg) ->
                Alcotest.failf "expected Over_budget, got Syntax: %s" msg);
        (* restored: the same source parses again under the default *)
        match Project.parse_file (file "b32-after.php" (nested_expr 100)) with
        | Ok _ -> ()
        | Error e ->
            Alcotest.failf "default budget rejected: %s"
              (Project.parse_error_message e));
  ]

(* Every analyzer must degrade malformed files to Failed outcomes. *)
let analyzers =
  [ ("phpSAFE", fun p -> Phpsafe.analyze_project p);
    ("RIPS", Rips.tool.Secflow.Tool.analyze_project);
    ("Pixy", Pixy.tool.Secflow.Tool.analyze_project) ]

let analyzer_cases =
  List.concat_map
    (fun (tool_name, analyze) ->
      List.map
        (fun (name, src) ->
          case (tool_name ^ ": " ^ name) `Quick (fun () ->
              let project = Project.make ~name:"m" [ file "m.php" src ] in
              match analyze project with
              | (result : Secflow.Report.result) ->
                  Alcotest.(check int) "one outcome" 1
                    (List.length result.Secflow.Report.outcomes)
              | exception exn ->
                  Alcotest.failf "%s escaped with %s" tool_name
                    (Printexc.to_string exn)))
        (("deep nesting past the fuel limit",
          nested_expr (Parser.nesting_limit () + 64))
        :: malformed_sources))
    analyzers

let budget_outcome_cases =
  [
    case "phpSAFE reports fuel exhaustion as Budget_exhausted" `Quick
      (fun () ->
        let deep = nested_expr (Parser.nesting_limit () + 64) in
        let project = Project.make ~name:"m" [ file "deep.php" deep ] in
        let result = Phpsafe.analyze_project project in
        match result.Secflow.Report.outcomes with
        | [ (_, Secflow.Report.Failed (Secflow.Report.Budget_exhausted _)) ] ->
            Alcotest.(check int) "counted as an error" 1
              result.Secflow.Report.errors
        | _ -> Alcotest.fail "expected a single Budget_exhausted outcome");
    case "include-closure cap degrades to Budget_exhausted" `Quick (fun () ->
        (* a 12-deep include chain with a closure cap of 4 *)
        let files =
          List.init 12 (fun i ->
              let next =
                if i = 11 then "" else Printf.sprintf "include 'f%d.php';" (i + 1)
              in
              file (Printf.sprintf "f%d.php" i) ("<?php " ^ next))
        in
        let project = Project.make ~name:"chain" files in
        with_budget
          { Secflow.Budget.default with Secflow.Budget.include_depth = 4 }
          (fun () ->
            let result = Phpsafe.analyze_project project in
            Alcotest.(check bool) "f0 fails on the closure cap" true
              (match List.assoc "f0.php" result.Secflow.Report.outcomes with
              | Secflow.Report.Failed (Secflow.Report.Budget_exhausted _) ->
                  true
              | _ -> false)));
  ]

(* --stats reads every file: a file that fails to lex or parse, or nests
   past the fuel, contributes its token and LOC counts only. *)
let stats_cases =
  List.map
    (fun (name, src) ->
      case ("stats: " ^ name) `Quick (fun () ->
          let project = Project.make ~name:"m" [ file "m.php" src ] in
          match Phpsafe.Stats.of_project project with
          | st ->
              Alcotest.(check int) "one file" 1 st.Phpsafe.Stats.st_files;
              Alcotest.(check int) "LOC" (Loc.count src)
                st.Phpsafe.Stats.st_loc
          | exception exn ->
              Alcotest.failf "Stats escaped with %s" (Printexc.to_string exn)))
    (("deep nesting past the fuel limit",
      nested_expr (Parser.nesting_limit () + 64))
    :: malformed_sources)

(* A lexical error anywhere in a file is its parse error, whatever the
   parser met first: the front end reports what lexing the whole file
   first reports, also when it lexes as it parses. *)
let precedence_cases =
  let lexical name src expected =
    case name `Quick (fun () ->
        match Project.parse_file (file "p.php" src) with
        | Error (Project.Syntax msg) ->
            Alcotest.(check string) "message" expected msg
        | Error (Project.Over_budget msg) ->
            Alcotest.failf "expected a lexical error, got Over_budget: %s" msg
        | Ok _ -> Alcotest.fail "unexpectedly parsed")
  in
  [
    lexical "a parse error, then an unterminated string"
      "<?php\n$x = ;\n$y = \"never closed"
      "lexical error on line 3: unterminated double-quoted string";
    lexical "a nesting-budget overrun, then a lexical error"
      (nested_expr (Parser.nesting_limit () + 64) ^ "\n\n$y = 'open")
      "lexical error on line 3: unterminated single-quoted string";
    lexical "an interpolated {$expr} that fails to lex"
      "<?php\n\necho \"a {$x . '} b\";\n"
      "lexical error on line 1: unterminated single-quoted string";
  ]

let () =
  Alcotest.run "malformed"
    [
      ("lexer", lexer_cases);
      ("parser", parser_cases);
      ("nesting fuel", fuel_cases);
      ("error precedence", precedence_cases);
      ("analyzers", analyzer_cases);
      ("budget outcomes", budget_outcome_cases);
      ("stats", stats_cases);
    ]
