(** [deep-warm] — phpSAFE with [flow_sensitive] and [infer_contexts] on,
    run two-phase ([analyze_project_so]) over V.2014 with the parse memo
    warmed during set-up.  Analysis is all of the time and lexing none:
    the only workload where the taint, summary and [Dataflow] fixpoint
    layers dominate, and where a front-end change must show no move. *)

open Harness

type state = { corpus : Corpus.t; gen_s : float }

let setup () =
  Phplang.Project.Parse_cache.clear Phplang.Project.Parse_cache.shared;
  let t0 = now () in
  let corpus = Corpus.generate Corpus.Plan.V2014 in
  let gen_s = now () -. t0 in
  List.iter
    (fun (project : Phplang.Project.t) ->
      List.iter
        (fun f -> ignore (Phplang.Project.parse_file f))
        project.Phplang.Project.files)
    (Corpus.projects corpus);
  { corpus; gen_s }

let opts =
  { Phpsafe.default_options with
    Phpsafe.flow_sensitive = true;
    infer_contexts = true }

let run ~pool_size (p : params) =
  with_store_root None @@ fun () ->
  let setup_s, st = repeat_setup ~setup ~teardown:ignore in
  let spec =
    { Passes.cold = false;
      tools =
        [ { Passes.name = "phpsafe";
            analyze = Phpsafe.analyze_project_so ~opts;
            expect = Oracle.expect Oracle.Phpsafe_deep st.corpus } ];
      plugins = st.corpus.Corpus.plugins;
      kloc =
        List.fold_left (fun acc p -> acc +. kloc p) 0. (Corpus.projects st.corpus);
      pool_size }
  in
  if p.trace then Passes.run_traced spec p ~gen_s:st.gen_s
  else Passes.run_untraced spec p ~setup_s
