(** Sub-file incremental re-analysis: checkpointed relexing and region
    re-parse must be byte-identical to a cold lex/parse after every edit,
    including the nasty front-end cases (heredoc bodies, unterminated
    strings, [<?=] blocks, edits straddling two definitions), with the
    fallback paths exercised and counted. *)

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
      let incr, _info = Lexer.relex old new_src in
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
   equivalence after every step, and return a named counter's delta. *)
let run_seq ?(counter = "") sources =
  let before = if counter = "" then 0 else Obs.counter counter in
  let session = Project.Increment.create () in
  List.iter (fun s -> check_equivalent session ~path:"seq.php" s) sources;
  if counter = "" then 0 else Obs.counter counter - before

let check_seq name ?counter ?expect_min sources =
  Alcotest.test_case name `Quick (fun () ->
      match (counter, expect_min) with
      | Some c, Some n ->
          let d = run_seq ~counter:c sources in
          if d < n then
            Alcotest.failf "expected %s to rise by >= %d, got %d" c n d
      | _ ->
          ignore (run_seq sources))

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
    check_seq "single-def body edit reparses region"
      ~counter:"parser.region.reparse" ~expect_min:1
      [
        three_defs "return $b;";
        three_defs "return $b . 'y';";
        three_defs "return $b . 'yz';";
      ];
    check_seq "straddling edit falls back"
      ~counter:"parser.region.fallback" ~expect_min:1
      [
        three_defs "return $b;";
        (* edit the tail of two() and the head of three() in one update:
           damage spans two top-level definitions *)
        (three_defs "return $b;"
        |> replace "return $b;\n}\nfunction three($c)"
             "return $b . '!';\n}\nfunction three($c, $d)");
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
    check_seq "close tag inserted mid-function"
      [
        "<?php function f() { $a = 1; return $a; } function g() { return 2; }";
        "<?php function f() { $a = 1; ?> html <?php return $a; } function g() { return 2; }";
      ];
  ]

let resume_counted =
  Alcotest.test_case "relex resume and resync are counted" `Quick (fun () ->
      let before_resume = Obs.counter "lexer.ckpt.resume" in
      let before_resync = Obs.counter "lexer.ckpt.resync_tokens" in
      let old = Lexer.lex_all big_src in
      let edited =
        edit ~at:(String.length big_src / 2) ~drop:0 ~insert:"$q = 7; " big_src
      in
      let incr, info = Lexer.relex old edited in
      Alcotest.(check int)
        "one resume" (before_resume + 1)
        (Obs.counter "lexer.ckpt.resume");
      let resynced = Obs.counter "lexer.ckpt.resync_tokens" - before_resync in
      let total = Array.length incr.Lexer.lx_tokens in
      if resynced <= 0 || resynced >= total / 2 then
        Alcotest.failf "expected a small fresh-token count, got %d of %d"
          resynced total;
      (* the reuse info must cover most of the stream on both sides *)
      if info.Lexer.rl_prefix = 0 then Alcotest.fail "no prefix reused";
      if info.Lexer.rl_old_suffix >= Array.length old.Lexer.lx_tokens then
        Alcotest.fail "no suffix reused")

(* ------------------------------------------------------------------ *)
(* Randomized edit storm: every splice checked against a cold parse   *)
(* ------------------------------------------------------------------ *)

let storm =
  Alcotest.test_case "seeded random edit storm" `Quick (fun () ->
      let rng = Random.State.make [| 0x5afe |] in
      let alphabet = "abc $_='\";{}()<>?+.\n1x" in
      let session = Project.Increment.create () in
      let src = ref big_src in
      check_equivalent session ~path:"storm.php" !src;
      for _ = 1 to 120 do
        let len = String.length !src in
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
        if drop > 0 || insert <> "" then begin
          src := edit ~at ~drop ~insert !src;
          check_equivalent session ~path:"storm.php" !src
        end
      done)

let () =
  Alcotest.run "increment"
    [
      ("relex", relex_cases);
      ("recovery", [ recovery_case ]);
      ("equivalence", seq_cases);
      ("counters", [ resume_counted ]);
      ("storm", [ storm ]);
    ]
