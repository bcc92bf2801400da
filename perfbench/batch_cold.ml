(** [batch-cold] — the paper's Table III protocol.  One op is one (tool,
    plugin) analysis of a V.2014 plugin, for phpSAFE, RIPS and Pixy; the
    parse memo is cleared before each tool's pass and the store is off,
    so every op pays its own lexing and parsing.  Lexer and parser are
    most of the time here: any front-end change shows. *)

open Harness

type state = { corpus : Corpus.t; gen_s : float }

let setup () =
  Phplang.Project.Parse_cache.clear Phplang.Project.Parse_cache.shared;
  let t0 = now () in
  let corpus = Corpus.generate Corpus.Plan.V2014 in
  { corpus; gen_s = now () -. t0 }

let spec ~pool_size (st : state) =
  let tool oracle_tool name (t : Secflow.Tool.t) =
    { Passes.name;
      analyze = t.Secflow.Tool.analyze_project;
      expect = Oracle.expect oracle_tool st.corpus }
  in
  { Passes.cold = true;
    tools =
      [ tool Oracle.Phpsafe "phpsafe" Phpsafe.tool;
        tool Oracle.Rips "rips" Rips.tool;
        tool Oracle.Pixy "pixy" Pixy.tool ];
    plugins = st.corpus.Corpus.plugins;
    kloc =
      List.fold_left
        (fun acc p -> acc +. kloc p)
        0. (Corpus.projects st.corpus);
    pool_size }

let table_i_ok (st : state) (spec : Passes.spec) =
  List.for_all2
    (fun oracle_tool (t : Passes.tool) ->
      Oracle.agrees_with_table_i oracle_tool st.corpus.Corpus.version t.expect)
    [ Oracle.Phpsafe; Oracle.Rips; Oracle.Pixy ]
    spec.Passes.tools

let run ~pool_size (p : params) =
  with_store_root None @@ fun () ->
  let setup_s, st = repeat_setup ~setup ~teardown:ignore in
  let spec = spec ~pool_size st in
  let r =
    if p.trace then Passes.run_traced spec p ~gen_s:st.gen_s
    else Passes.run_untraced spec p ~setup_s
  in
  { r with correct = r.correct && table_i_ok st spec }
