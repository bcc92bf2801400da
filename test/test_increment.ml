(** Sub-file incremental re-analysis: checkpointed relexing and
    statement-reuse re-parse must be byte-identical to a cold lex/parse
    after every edit, including the nasty front-end cases (heredoc bodies,
    unterminated strings, [<?=] blocks, edits touching two definitions,
    lookahead past a reused statement), with the fallback paths exercised
    and counted. *)

open Phplang

(* ------------------------------------------------------------------ *)
(* Relex equivalence                                                  *)
(* ------------------------------------------------------------------ *)

let token_list (l : Lexer.lexed) =
  Array.to_list l.Lexer.lx_tokens
  |> List.map (fun (t : Token.t) ->
         Printf.sprintf "%s|%s|%d" (Token.name t.Token.kind) t.Token.lexeme
           t.Token.line)

let check_relex name old_src new_src =
  Alcotest.test_case name `Quick (fun () ->
      let old = Lexer.lex_all old_src in
      let fresh = Lexer.lex_all new_src in
      let incr = Lexer.relex old new_src in
      Alcotest.(check (list string))
        "relex tokens = cold tokens" (token_list fresh) (token_list incr);
      Alcotest.(check string) "source recorded" new_src incr.Lexer.lx_src;
      (* starts must tile the new source *)
      let n = Array.length incr.Lexer.lx_tokens in
      Alcotest.(check int)
        "eof start" (String.length new_src)
        incr.Lexer.lx_starts.(n - 1))

let check_relex_error name old_src new_src =
  Alcotest.test_case name `Quick (fun () ->
      let old = Lexer.lex_all old_src in
      let cold =
        match Lexer.lex_all new_src with
        | exception Lexer.Error (m, l) -> Some (m, l)
        | _ -> None
      in
      let incr =
        match Lexer.relex old new_src with
        | exception Lexer.Error (m, l) -> Some (m, l)
        | _ -> None
      in
      Alcotest.(check (option (pair string int)))
        "relex error = cold error" cold incr)

let big_src =
  let b = Buffer.create 4096 in
  Buffer.add_string b "<?php\n";
  for i = 0 to 60 do
    Buffer.add_string b
      (Printf.sprintf
         "function fn%d($a) {\n  $x = $a . 'suffix%d';\n  return $x;\n}\n" i i)
  done;
  Buffer.contents b

let edit ~at ~drop ~insert src =
  String.sub src 0 at ^ insert
  ^ String.sub src (at + drop) (String.length src - at - drop)

let relex_cases =
  [
    check_relex "single char change"
      "<?php $a = 1; $b = 2; $c = 3;"
      "<?php $a = 1; $b = 9; $c = 3;";
    check_relex "insertion grows token"
      "<?php $abc = 5;" "<?php $abcdef = 5;";
    check_relex "deletion" "<?php $aa = 11 + 22;" "<?php $aa = 1 + 22;";
    check_relex "number exponent grows backward"
      "<?php $x = 5; $y = 2;" "<?php $x = 5e3; $y = 2;"
      (* "5" then "e3" must relex as one T_DNUMBER *);
    check_relex "exponent removed" "<?php $x = 5e3;" "<?php $x = 5;";
    check_relex "newline insertion shifts lines"
      "<?php $a = 1;\n$b = 2;\n$c = 3;\n"
      "<?php $a = 1;\n\n\n$b = 2;\n$c = 3;\n";
    check_relex "newline removal"
      "<?php $a = 1;\n\n$b = 2;\n" "<?php $a = 1;\n$b = 2;\n";
    check_relex "heredoc body edit"
      "<?php $a = 1;\n$s = <<<EOT\nhello world\nEOT;\n$b = 2;\n"
      "<?php $a = 1;\n$s = <<<EOT\nhello brave world\nEOT;\n$b = 2;\n";
    check_relex "nowdoc body edit"
      "<?php $s = <<<'EOT'\nraw $body\nEOT;\n$b = 2;\n"
      "<?php $s = <<<'EOT'\nraw $content\nEOT;\n$b = 2;\n";
    check_relex "heredoc label edit changes extent"
      "<?php $s = <<<EOT\nx\nEOT;\n$t = <<<EOT\ny\nEOT;\n"
      "<?php $s = <<<EOD\nx\nEOT;\ny\nEOD;\n$u = 1;\n";
    check_relex "edit before heredoc"
      "<?php $a = 1;\n$s = <<<EOT\nbody line\nEOT;\n"
      "<?php $a = 42;\n$s = <<<EOT\nbody line\nEOT;\n";
    check_relex "open short echo tag"
      "<html><?= $x ?></html>" "<html><?= $y ?></html>";
    check_relex "html to php transition edit"
      "<p>text</p><?php $a = 1;" "<p>more text</p><?php $a = 1;";
    check_relex "close then reopen"
      "<?php $a = 1; ?><b><?php $c = 2;"
      "<?php $a = 1; ?><strong><?php $c = 2;";
    check_relex "string closed"
      "<?php $s = 'abc'; $t = 1;" "<?php $s = 'abcd'; $t = 1;";
    check_relex "comment edit"
      "<?php // note\n$a = 1;" "<?php // longer note\n$a = 1;";
    check_relex "block comment edit"
      "<?php /* a */ $a = 1;" "<?php /* bb */ $a = 1;";
    check_relex "cast appears at distance"
      "<?php $x = (          strin) ;" "<?php $x = (          string) ;";
    check_relex "cast destroyed at distance"
      "<?php $x = (          string) ;" "<?php $x = (          strin) ;";
    check_relex "edit near start" "<?php $a = 1;" "<?pHp $a = 1;";
    check_relex "edit at very end" "<?php $a = 1;" "<?php $a = 12;";
    check_relex "big file middle edit" big_src
      (edit ~at:(String.length big_src / 2) ~drop:1 ~insert:"X" big_src);
    check_relex_error "edit opens unterminated string"
      "<?php $s = 'ok'; $t = 2;" "<?php $s = ok'; $t = 2;";
    check_relex_error "unterminated block comment"
      "<?php /* c */ $a = 1;" "<?php /* c * $a = 1;";
  ]

(* the error case must also recover: closing the string again re-lexes *)
let recovery_case =
  Alcotest.test_case "unterminated string closes again" `Quick (fun () ->
      let s0 = "<?php $s = 'ok'; $t = 2;" in
      let s1 = "<?php $s = ok'; $t = 2;" (* broken *) in
      let s2 = "<?php $s = 'ok2'; $t = 2;" in
      let session = Project.Increment.create () in
      let r0 = Project.Increment.update session ~path:"f.php" ~source:s0 in
      Alcotest.(check bool) "initial ok" true (Result.is_ok r0);
      let r1 = Project.Increment.update session ~path:"f.php" ~source:s1 in
      Alcotest.(check bool) "broken errors" true (Result.is_error r1);
      let r2 = Project.Increment.update session ~path:"f.php" ~source:s2 in
      Alcotest.(check bool) "recovered" true (Result.is_ok r2))

(* ------------------------------------------------------------------ *)
(* Incremental parse equivalence                                      *)
(* ------------------------------------------------------------------ *)

let full_result ~path source : (Ast.program, Project.parse_error) result =
  match Parser.parse_source ~file:path source with
  | prog -> Ok prog
  | exception Parser.Parse_error (msg, _) -> Error (Project.Syntax msg)
  | exception Lexer.Error (msg, line) ->
      Error
        (Project.Syntax
           (Printf.sprintf "lexical error on line %d: %s" line msg))
  | exception Parser.Depth_exceeded (msg, _) ->
      Error (Project.Over_budget msg)

let result_fingerprint = function
  | Ok prog -> "ok:" ^ Digest.structural prog
  | Error (Project.Syntax m) -> "syntax:" ^ m
  | Error (Project.Over_budget m) -> "budget:" ^ m

let check_equivalent session ~path source =
  let incr = Project.Increment.update session ~path ~source in
  let cold = full_result ~path source in
  Alcotest.(check string)
    "incremental = cold (positions included)"
    (result_fingerprint cold) (result_fingerprint incr)

(* Run a sequence of sources through one session, asserting cold
   equivalence after every step. *)
let run_seq sources =
  let session = Project.Increment.create () in
  List.iter (fun s -> check_equivalent session ~path:"seq.php" s) sources

let region_counters = [ "parser.region.reparse"; "parser.region.fallback" ]

(* [f]'s deltas of the region counters *)
let region_deltas f =
  let before = List.map Obs.counter region_counters in
  let v = f () in
  (v, List.map2 (fun c b -> Obs.counter c - b) region_counters before)

(* [reparse]/[fallback], when given, are the exact counter deltas over
   the whole sequence *)
let check_seq name ?reparse ?fallback sources =
  Alcotest.test_case name `Quick (fun () ->
      let (), deltas = region_deltas (fun () -> run_seq sources) in
      List.iter2
        (fun (c, expect) got ->
          Option.iter (fun n -> Alcotest.(check int) c n got) expect)
        (List.combine region_counters [ reparse; fallback ])
        deltas)

(* replace the first occurrence of [needle]; fails the test if absent *)
let replace needle by s =
  let nl = String.length needle and sl = String.length s in
  let rec find i =
    if i + nl > sl then Alcotest.failf "edit pattern %S not found" needle
    else if String.sub s i nl = needle then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + nl) (sl - i - nl)

let three_defs body2 =
  Printf.sprintf
    "<?php\n\
     function one($a) {\n  return $a . 'x';\n}\n\
     function two($b) {\n  %s\n}\n\
     function three($c) {\n  return strlen($c);\n}\n"
    body2

let seq_cases =
  [
    check_seq "single-def body edit reparses region" ~reparse:2 ~fallback:0
      [
        three_defs "return $b;";
        three_defs "return $b . 'y';";
        three_defs "return $b . 'yz';";
      ];
    check_seq "an edit touching two definitions re-parses both" ~reparse:1
      ~fallback:0
      [
        three_defs "return $b;";
        (* edit the tail of two() and the head of three() in one update *)
        (three_defs "return $b;"
        |> replace "return $b;\n}\nfunction three($c)"
             "return $b . '!';\n}\nfunction three($c, $d)");
      ];
    check_seq "an update after a failed parse falls back" ~reparse:1
      ~fallback:1
      [
        three_defs "return $b;";
        three_defs "return $b";
        three_defs "return $b . 'ok';";
      ];
    check_seq "whitespace-only edit"
      [
        three_defs "return $b;";
        String.concat "\n\n" [ three_defs "return $b;" ];
        three_defs "return $b;" ^ "\n\n\n";
      ];
    check_seq "heredoc body edit"
      [
        "<?php\nfunction h() {\n  $q = <<<SQL\nSELECT a FROM t\nSQL;\n  \
         return $q;\n}\nfunction g() { return 1; }\n";
        "<?php\nfunction h() {\n  $q = <<<SQL\nSELECT a, b FROM t\nSQL;\n  \
         return $q;\n}\nfunction g() { return 1; }\n";
      ];
    check_seq "nowdoc body edit"
      [
        "<?php function n() { $x = <<<'EOT'\nliteral $a\nEOT;\nreturn $x; }\n";
        "<?php function n() { $x = <<<'EOT'\nliteral $b\nEOT;\nreturn $x; }\n";
      ];
    check_seq "short echo block edit"
      [
        "<html><?= $title ?><body><?php $x = 1; ?></body></html>";
        "<html><?= $subtitle ?><body><?php $x = 1; ?></body></html>";
        "<html><?= $subtitle ?><body><?php $x = 2; ?></body></html>";
      ];
    check_seq "string breaks then heals"
      [
        "<?php function s() { $a = 'one'; return $a; }";
        "<?php function s() { $a = one'; return $a; }";
        "<?php function s() { $a = 'another'; return $a; }";
      ];
    check_seq "statement inserted between defs"
      [
        three_defs "return $b;";
        (three_defs "return $b;"
        |> replace "}\nfunction three" "}\n$glob = 1;\nfunction three");
      ];
    check_seq "definition deleted"
      [
        three_defs "return $b;";
        "<?php\nfunction one($a) {\n  return $a . 'x';\n}\n\
         function three($c) {\n  return strlen($c);\n}\n";
      ];
    check_seq "signature change"
      [
        three_defs "return $b;";
        (three_defs "return $b;"
        |> replace "function two($b)" "function two($b, $extra = 'd')");
      ];
    check_seq "an unchanged if gains an else" ~reparse:2 ~fallback:0
      [
        "<?php\nif ($a) { echo 1; }\n$b = 2;\n";
        "<?php\nif ($a) { echo 1; }\nelse { echo 3; }\n$b = 2;\n";
        "<?php\nif ($a) { echo 1; }\nelse if ($c) { echo 3; }\n$b = 2;\n";
      ];
    check_seq "an unchanged try gains a catch" ~reparse:1 ~fallback:0
      [
        "<?php\ntry { f(); }\n$b = 2;\n";
        "<?php\ntry { f(); }\ncatch (Exception $e) { g($e); }\n$b = 2;\n";
      ];
    check_seq "the last statement loses its ; before EOF"
      [
        "<?php\n$a = 1;\n$b = 2;";
        "<?php\n$a = 1;\n$b = 2";
        "<?php\n$a = 1;\n$b = 2\n$c = 3;";
        "<?php\n$a = 1;\n$b = 2;\n$c = 3;";
      ];
    check_seq "close tag inserted mid-function"
      [
        "<?php function f() { $a = 1; return $a; } function g() { return 2; }";
        "<?php function f() { $a = 1; ?> html <?php return $a; } function g() { return 2; }";
      ];
  ]

(* the top-level function named [name] in [r] *)
let func r name =
  match r with
  | Some (Ok prog) -> (
      match
        List.find_map
          (fun (st : Ast.stmt) ->
            match st.Ast.s with
            | Ast.FuncDef f when f.Ast.f_name = name -> Some (st, f)
            | _ -> None)
          prog
      with
      | Some x -> x
      | None -> Alcotest.failf "no function %s" name)
  | _ -> Alcotest.fail "expected a successful parse"

(* A reused statement is the old value (line delta 0) or a line-shifted
   copy of it, which still shares the old leaf expressions; a re-parse
   builds every node afresh.  [leaf] is the first body statement's
   returned expression. *)
let leaf (_, (f : Ast.func)) =
  match f.Ast.f_body with
  | { Ast.s = Ast.Return (Some e); _ } :: _ -> e.Ast.e
  | _ -> Alcotest.fail "expected a return"

let reuse_cases =
  [
    Alcotest.test_case "untouched definitions are reused, not re-parsed"
      `Quick (fun () ->
        let session = Project.Increment.create () in
        let path = "reuse.php" in
        check_equivalent session ~path (three_defs "return $b;");
        let r0 = Project.Increment.result session path in
        check_equivalent session ~path
          (three_defs "return $b;"
          |> replace "return $b;\n}\nfunction three($c)"
               "return $b . '!';\n}\nfunction three($c, $d)");
        let r1 = Project.Increment.result session path in
        Alcotest.(check bool)
          "one() is the old statement" true
          (fst (func r0 "one") == fst (func r1 "one"));
        Alcotest.(check bool)
          "two() is re-parsed" false
          (leaf (func r0 "two") == leaf (func r1 "two")));
    Alcotest.test_case "swapped functions are reused with their own deltas"
      `Quick (fun () ->
        let short = "function short($a) {\n  return $a;\n}\n" in
        let long =
          "function long($b) {\n  return $b;\n\n\n  $b = $b . 'x';\n}\n"
        in
        (* the token after each function stays [function] *)
        let tail = "function tail() {}\n" in
        let session = Project.Increment.create () in
        let path = "swap.php" in
        let (), deltas =
          region_deltas (fun () ->
              check_equivalent session ~path ("<?php\n" ^ short ^ long ^ tail);
              let r0 = Project.Increment.result session path in
              check_equivalent session ~path ("<?php\n" ^ long ^ short ^ tail);
              let r1 = Project.Increment.result session path in
              List.iter
                (fun name ->
                  let (s0, _) as f0 = func r0 name and (s1, _) as f1 = func r1 name in
                  if s0.Ast.spos.Ast.line = s1.Ast.spos.Ast.line then
                    Alcotest.failf "%s did not move" name;
                  Alcotest.(check bool)
                    (name ^ " is reused") true
                    (leaf f0 == leaf f1))
                [ "short"; "long" ])
        in
        Alcotest.(check (list int)) "one reuse update, no fallback" [ 1; 0 ]
          deltas);
  ]

(* The nesting limit is part of a parse's identity: a result parsed under
   one limit must not answer a lookup under another. *)
let deep_src =
  "<?php $x = " ^ String.make 40 '(' ^ "1" ^ String.make 40 ')' ^ ";\n"

let with_limit n f =
  Parser.set_nesting_limit n;
  Fun.protect
    ~finally:(fun () -> Parser.set_nesting_limit Parser.default_nesting_limit)
    f

let outcome = function
  | Ok _ -> "ok"
  | Error (Project.Syntax _) -> "syntax"
  | Error (Project.Over_budget _) -> "over budget"

let budget_cases =
  [
    Alcotest.test_case "the parse memo follows the nesting limit" `Quick
      (fun () ->
        let f = { Project.path = "deep-memo.php"; source = deep_src } in
        with_limit 16 (fun () ->
            Alcotest.(check string)
              "tight limit" "over budget"
              (outcome (Project.parse_file f)));
        Alcotest.(check string)
          "default limit" "ok"
          (outcome (Project.parse_file f)));
    Alcotest.test_case "an increment session follows the nesting limit" `Quick
      (fun () ->
        let session = Project.Increment.create () in
        let path = "deep-inc.php" in
        with_limit 16 (fun () ->
            Alcotest.(check string)
              "tight limit" "over budget"
              (outcome (Project.Increment.update session ~path ~source:deep_src)));
        let r, deltas =
          region_deltas (fun () ->
              Project.Increment.update session ~path ~source:deep_src)
        in
        Alcotest.(check string) "default limit" "ok" (outcome r);
        Alcotest.(check (list int)) "a counted fallback" [ 0; 1 ] deltas;
        (* a successful parse under the old limit is not reused either *)
        let _, deltas =
          region_deltas (fun () ->
              with_limit 400 (fun () ->
                  check_equivalent session ~path (deep_src ^ "$y = 2;\n")))
        in
        Alcotest.(check (list int)) "changed limit falls back" [ 0; 1 ] deltas);
  ]

let resume_counted =
  Alcotest.test_case "relex resume and resync are counted" `Quick (fun () ->
      let before_resume = Obs.counter "lexer.ckpt.resume" in
      let before_resync = Obs.counter "lexer.ckpt.resync_tokens" in
      let old = Lexer.lex_all big_src in
      let edited =
        edit ~at:(String.length big_src / 2) ~drop:0 ~insert:"$q = 7; " big_src
      in
      let incr = Lexer.relex old edited in
      Alcotest.(check int)
        "one resume" (before_resume + 1)
        (Obs.counter "lexer.ckpt.resume");
      let resynced = Obs.counter "lexer.ckpt.resync_tokens" - before_resync in
      let total = Array.length incr.Lexer.lx_tokens in
      if resynced <= 0 || resynced >= total / 2 then
        Alcotest.failf "expected a small fresh-token count, got %d of %d"
          resynced total)

(* ------------------------------------------------------------------ *)
(* Randomized edit storms: every update checked against a cold parse  *)
(* ------------------------------------------------------------------ *)

(* [steps] edits from [src]; every second one is a two-site update that
   undoes the previous edit and makes a new one, as a watch session sees
   when each save replaces the last edit. *)
let run_storm ~path ~steps ~random_edit src =
  let session = Project.Increment.create () in
  check_equivalent session ~path src;
  let current = ref src and before_last = ref src in
  for step = 1 to steps do
    let from = if step mod 2 = 0 then !before_last else !current in
    match random_edit from with
    | None -> ()
    | Some src' ->
        before_last := from;
        current := src';
        check_equivalent session ~path src'
  done

let storm =
  Alcotest.test_case "seeded random edit storm" `Quick (fun () ->
      let rng = Random.State.make [| 0x5afe |] in
      let alphabet = "abc $_='\";{}()<>?+.\n1x" in
      let random_edit src =
        let len = String.length src in
        let at = Random.State.int rng (len - 1) in
        let drop =
          if Random.State.bool rng then 0
          else min (Random.State.int rng 12) (len - at - 1)
        in
        let insert =
          if Random.State.bool rng then ""
          else
            String.init
              (1 + Random.State.int rng 8)
              (fun _ -> alphabet.[Random.State.int rng (String.length alphabet)])
        in
        if drop > 0 || insert <> "" then Some (edit ~at ~drop ~insert src)
        else None
      in
      run_storm ~path:"storm.php" ~steps:160 ~random_edit big_src)

(* Edits that keep the file parsing, so every update after the first goes
   through statement reuse: statements and blank lines inserted after a
   line end, and whole lines deleted. *)
let valid_storm =
  Alcotest.test_case "seeded parse-preserving edit storm" `Quick (fun () ->
      let rng = Random.State.make [| 0x1ed17 |] in
      let line_starts src =
        List.filter_map
          (fun i -> if i > 6 && src.[i - 1] = '\n' then Some i else None)
          (List.init (String.length src) Fun.id)
      in
      let random_edit src =
        let starts = Array.of_list (line_starts src) in
        let at = starts.(Random.State.int rng (Array.length starts)) in
        match Random.State.int rng 3 with
        | 0 -> Some (edit ~at ~drop:0 ~insert:"\n\n" src)
        | 1 ->
            Some
              (edit ~at ~drop:0
                 ~insert:(Printf.sprintf "$v%d = %d;\n" at at)
                 src)
        | _ ->
            (* delete an inserted statement line, if any starts here *)
            if String.length src > at + 2 && String.sub src at 2 = "$v" then
              let stop = String.index_from src at '\n' in
              Some (edit ~at ~drop:(stop - at + 1) ~insert:"" src)
            else None
      in
      let (), deltas =
        region_deltas (fun () ->
            run_storm ~path:"valid-storm.php" ~steps:120 ~random_edit big_src)
      in
      Alcotest.(check int) "no fallback" 0 (List.nth deltas 1);
      if List.hd deltas < 60 then
        Alcotest.failf "only %d reuse updates" (List.hd deltas))

(* An update drops the memo entry of the source it replaces, so a long
   --watch session keeps one parse per path, not one per version. *)
let evicts_superseded =
  Alcotest.test_case "an update evicts the replaced source's parse" `Quick
    (fun () ->
      let session = Project.Increment.create () and path = "evict.php" in
      let v1 = three_defs "return $b;" and v2 = three_defs "return $b . 'x';" in
      ignore (Project.Increment.update session ~path ~source:v1);
      ignore (Project.Increment.update session ~path ~source:v2);
      let cached source =
        let key = (path, Digest.string source) in
        let parsed = ref false in
        ignore
          (Project.Parse_cache.memo Project.Parse_cache.shared key (fun () ->
               parsed := true;
               Error (Project.Syntax "re-parsed")));
        Project.Parse_cache.forget Project.Parse_cache.shared key;
        not !parsed
      in
      Alcotest.(check bool) "v2 still hits" true (cached v2);
      Alcotest.(check bool) "v1 is a miss" false (cached v1))

let initial_counted =
  Alcotest.test_case "a path's first update counts as initial" `Quick
    (fun () ->
      let names =
        [ "parser.region.initial"; "parser.region.reparse";
          "parser.region.fallback" ]
      in
      let before = List.map Obs.counter names in
      let session = Project.Increment.create () in
      check_equivalent session ~path:"first.php" (three_defs "return $b;");
      Alcotest.(check (list int)) "initial, reparse, fallback" [ 1; 0; 0 ]
        (List.map2 (fun c b -> Obs.counter c - b) names before))

(* The in-process memo answers every parse on the incremental path before
   the disk tier would, so an update writes nothing to the Store. *)
let no_store_writes =
  Alcotest.test_case "updates write no parse to the disk store" `Quick
    (fun () ->
      let dir = Filename.temp_file "increment-store" "" in
      Sys.remove dir;
      let saved = Store.root () in
      Store.set_root (Some dir);
      Fun.protect
        ~finally:(fun () ->
          Store.set_root saved;
          ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
        (fun () ->
          let before = Obs.counter "cache.parse.store" in
          let session = Project.Increment.create () in
          let src = three_defs "return $b;" in
          check_equivalent session ~path:"stored.php" src;
          check_equivalent session ~path:"stored.php"
            (three_defs "return $b . 'x';");
          Alcotest.(check int) "cache.parse.store" 0
            (Obs.counter "cache.parse.store" - before)))

let () =
  Alcotest.run "increment"
    [
      ("relex", relex_cases);
      ("recovery", [ recovery_case ]);
      ("equivalence", seq_cases);
      ("reuse", reuse_cases);
      ("budget", budget_cases);
      ("counters", [ resume_counted; initial_counted; no_store_writes ]);
      ("memo", [ evicts_superseded ]);
      ("storm", [ storm; valid_storm ]);
    ]
