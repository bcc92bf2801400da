(** Token identity over the generated corpora.

    Every file of the V.2012 and V.2014 corpora is tokenized and each
    token's [(Token.name kind, lexeme, line)] is fed to one digest per
    corpus, together with the message and line of any lexing error.  The
    pinned digests are the reference token stream: a lexer optimization
    must leave them as they are, and any change to a token kind, a lexeme,
    a line number or an error shows up here.  The same files also check
    that the lexer's entry points agree: [tokenize_significant] is
    [significant] of [tokenize]. *)

open Phplang

let files version =
  Corpus.generate version |> Corpus.projects
  |> List.concat_map (fun (p : Project.t) -> p.Project.files)

let token_digest files =
  let buf = Buffer.create (1 lsl 16) in
  let field s =
    Buffer.add_string buf s;
    Buffer.add_char buf '\000'
  in
  List.iter
    (fun (f : Project.file) ->
      field f.Project.path;
      (match Lexer.tokenize f.Project.source with
      | tokens ->
          List.iter
            (fun (t : Token.t) ->
              field (Token.name t.Token.kind);
              field t.Token.lexeme;
              field (string_of_int t.Token.line))
            tokens
      | exception Lexer.Error (msg, line) ->
          field "ERROR";
          field msg;
          field (string_of_int line));
      Buffer.add_char buf '\n')
    files;
  Stdlib.Digest.to_hex (Stdlib.Digest.string (Buffer.contents buf))

let same_tokens = Alcotest.(list (testable Token.pp ( = )))

let digest_case name version expected =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check string) "token digest" expected
        (token_digest (files version)))

let agreement_case name version =
  let lexed f src =
    match f src with
    | v -> Ok v
    | exception Lexer.Error (msg, line) -> Error (msg, line)
  in
  let result = Alcotest.(result same_tokens (pair string int)) in
  Alcotest.test_case name `Quick (fun () ->
      List.iter
        (fun (f : Project.file) ->
          let src = f.Project.source in
          let tokens = lexed Lexer.tokenize src in
          Alcotest.check result
            (f.Project.path ^ ": tokenize_significant")
            (Result.map Lexer.significant tokens)
            (lexed Lexer.tokenize_significant src))
        (files version))

(* The parser's entry points build the same program, positions included,
   and fail with the same error: [parse_source] pulling from the lexer
   and [parse_tokens] over the significant-token list. *)
let ast_agreement_case name version =
  let parsed f src =
    match f src with
    | prog -> Ok prog
    | exception Lexer.Error (msg, line) -> Error (Printf.sprintf "lex %d: %s" line msg)
    | exception Parser.Parse_error (msg, p) ->
        Error (Printf.sprintf "parse %d: %s" p.Ast.line msg)
    | exception Parser.Depth_exceeded (msg, p) ->
        Error (Printf.sprintf "depth %d: %s" p.Ast.line msg)
  in
  Alcotest.test_case name `Quick (fun () ->
      List.iter
        (fun (f : Project.file) ->
          let file = f.Project.path and src = f.Project.source in
          let reference = parsed (Parser.parse_source ~file) src in
          let agree what result =
            if result <> reference then
              Alcotest.failf "%s: %s differs from parse_source" file what
          in
          agree "parse_tokens"
            (parsed
               (fun s -> Parser.parse_tokens ~file (Lexer.tokenize_significant s))
               src))
        (files version))

let () =
  Alcotest.run "token identity"
    [ ( "digests",
        [ digest_case "V.2012 tokens unchanged" Corpus.Plan.V2012
            "46c1e92db878e120ae99557edd7fa276";
          digest_case "V.2014 tokens unchanged" Corpus.Plan.V2014
            "84113686ac3896b502e999089eaffc4b" ] );
      ( "entry points agree",
        [ agreement_case "V.2012" Corpus.Plan.V2012;
          agreement_case "V.2014" Corpus.Plan.V2014 ] );
      ( "parsers agree",
        [ ast_agreement_case "V.2012" Corpus.Plan.V2012;
          ast_agreement_case "V.2014" Corpus.Plan.V2014 ] ) ]
