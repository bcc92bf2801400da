(** Benchmark harness: regenerates every table and figure of the paper's
    evaluation (§V) and times each with Bechamel.

    Layout:
    - first the full evaluation report is printed (Table I, Fig. 2 data,
      Table II, §V.A OOP counts, §V.D inertia, §V.E robustness), with the
      paper-reported values alongside;
    - then Table III measured the paper's way (average of 5 runs, on the
      monotonic wall clock rather than the paper's CPU time);
    - then one Bechamel [Test.make] per table/figure: the six Table III
      analysis runs (tool × corpus version), the artifact-regeneration
      pipelines for Table I, Fig. 2, Table II and §V.D, and the lexer's
      throughput over the V.2014 sources. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Observability flags (before the fixtures, so module-initialization
   work is captured too): --trace out.json / --metrics out.json        *)
(* ------------------------------------------------------------------ *)

let path_opt_from_argv flag =
  let rec scan = function
    | f :: path :: _ when String.equal f flag -> Some path
    | _ :: rest -> scan rest
    | [] -> None
  in
  scan (Array.to_list Sys.argv)

let trace_out = path_opt_from_argv "--trace"
let metrics_out = path_opt_from_argv "--metrics"
let () = if trace_out <> None || metrics_out <> None then Obs.set_enabled true

(* Persistent cache root (--cache-dir DIR / --no-cache, as on bin/evaluate)
   and the machine-readable results file (--json FILE, schema
   phpsafe-bench/1). *)
let json_out = path_opt_from_argv "--json"
let no_cache = Array.exists (String.equal "--no-cache") Sys.argv

let () =
  if no_cache then Phplang.Store.set_root None
  else
    match path_opt_from_argv "--cache-dir" with
    | Some dir -> Phplang.Store.set_root (Some dir)
    | None -> ()

(* ------------------------------------------------------------------ *)
(* Shared fixtures                                                    *)
(* ------------------------------------------------------------------ *)

let corpus12 = Corpus.generate Corpus.Plan.V2012
let corpus14 = Corpus.generate Corpus.Plan.V2014

let tools : Secflow.Tool.t list = [ Phpsafe.tool; Rips.tool; Pixy.tool ]

let run_tool_on (tool : Secflow.Tool.t) corpus =
  List.map
    (fun (p : Corpus.Catalog.plugin_output) ->
      (p.Corpus.Catalog.po_name,
       tool.Secflow.Tool.analyze_project p.Corpus.Catalog.po_project))
    corpus.Corpus.plugins

(* Table III the paper's way: average of five runs — but on the monotonic
   wall clock (Obs.Clock), not Sys.time: CPU time sums across domains and
   over-reports whenever a pool is active in the same process. *)
let timed_runs = 5

let detection_time (tool : Secflow.Tool.t) corpus =
  let t0 = Obs.Clock.now () in
  for _ = 1 to timed_runs do
    ignore (run_tool_on tool corpus)
  done;
  (Obs.Clock.now () -. t0) /. float_of_int timed_runs

(* Domain pool for the parallel driver ($PHPSAFE_JOBS overrides sizing). *)
let pool = Sched.create ()

(* Precomputed evaluations reused by the report and the fast benches,
   computed through the parallel driver (results are identical to the
   sequential path; only timing differs). *)
let ev2012, stats2012 =
  Evalkit.Runner.evaluate_with_stats ~pool Corpus.Plan.V2012
let ev2014, stats2014 =
  Evalkit.Runner.evaluate_with_stats ~pool Corpus.Plan.V2014

(* Whole-corpus wall-clock comparison: the six Table III runs (tool ×
   version) once sequentially, once fanned out across the pool.  Returns
   (sequential, parallel) wall seconds for the --json results file. *)
let sequential_vs_parallel () =
  let items =
    List.concat_map
      (fun (tool : Secflow.Tool.t) ->
        [ (tool, corpus12); (tool, corpus14) ])
      tools
  in
  let work (tool, corpus) = ignore (run_tool_on tool corpus) in
  let wall f =
    let t0 = Obs.Clock.now () in
    f ();
    Obs.Clock.now () -. t0
  in
  let seq = wall (fun () -> List.iter work items) in
  let par = wall (fun () -> ignore (Sched.map ~pool work items)) in
  Format.printf
    "@.== Table III whole-corpus runs: sequential vs parallel wall clock ==@.";
  Format.printf
    "sequential: %6.2fs   parallel (%d domains): %6.2fs   speedup: %.2fx@."
    seq (Sched.size pool) par
    (if par > 0. then seq /. par else nan);
  (seq, par)

(* ------------------------------------------------------------------ *)
(* Bechamel tests: one per table / figure                              *)
(* ------------------------------------------------------------------ *)

(* Table III — whole-corpus analysis per tool and version. *)
let table3_tests =
  List.concat_map
    (fun (tool : Secflow.Tool.t) ->
      [ Test.make
          ~name:(Printf.sprintf "table3/%s-2012" tool.Secflow.Tool.name)
          (Staged.stage (fun () -> ignore (run_tool_on tool corpus12)));
        Test.make
          ~name:(Printf.sprintf "table3/%s-2014" tool.Secflow.Tool.name)
          (Staged.stage (fun () -> ignore (run_tool_on tool corpus14))) ])
    tools

(* Table I — classification + metrics over the raw tool outputs. *)
let table1_test =
  Test.make ~name:"table1/classification+metrics"
    (Staged.stage (fun () ->
         let classified =
           List.map
             (fun (r : Evalkit.Runner.tool_run) ->
               Evalkit.Matching.classify ~seeds:corpus12.Corpus.seeds
                 r.Evalkit.Runner.tr_output)
             ev2012.Evalkit.Runner.ev_runs
         in
         let union = Evalkit.Matching.detected_union classified in
         List.iter
           (fun c ->
             ignore (Evalkit.Matching.metrics_for ~union c);
             ignore (Evalkit.Matching.metrics_for ~kind:Secflow.Vuln.Xss ~union c);
             ignore (Evalkit.Matching.metrics_for ~kind:Secflow.Vuln.Sqli ~union c))
           classified))

(* Fig. 2 — Venn region computation. *)
let figure2_test =
  Test.make ~name:"figure2/venn-regions"
    (Staged.stage (fun () ->
         let get name = Evalkit.Runner.classified_for ev2012 name in
         ignore
           (Evalkit.Venn.compute
              ~all_real:(Corpus.real_vulns corpus12)
              ~phpsafe:(get "phpSAFE") ~rips:(get "RIPS") ~pixy:(get "Pixy"))))

(* Table II — input-vector classification with the persistence join. *)
let table2_test =
  Test.make ~name:"table2/input-vectors"
    (Staged.stage (fun () ->
         ignore
           (Evalkit.Vectors.compute
              ~union_2012:ev2012.Evalkit.Runner.ev_union
              ~union_2014:ev2014.Evalkit.Runner.ev_union)))

(* §V.D — inertia analysis. *)
let inertia_test =
  Test.make ~name:"sectionVD/inertia"
    (Staged.stage (fun () ->
         ignore
           (Evalkit.Inertia.compute
              ~union_2012:ev2012.Evalkit.Runner.ev_union
              ~union_2014:ev2014.Evalkit.Runner.ev_union)))

(* corpus generation itself, since every artifact depends on it *)
let corpus_test =
  Test.make ~name:"corpus/generate-2012"
    (Staged.stage (fun () -> ignore (Corpus.generate Corpus.Plan.V2012)))

(* Front end: lexer throughput over every V.2014 source. *)
let sources14 =
  List.concat_map
    (fun (p : Phplang.Project.t) ->
      List.map
        (fun (f : Phplang.Project.file) -> f.Phplang.Project.source)
        p.Phplang.Project.files)
    (Corpus.projects corpus14)

let lex_name = "phplang/lex-2014"

let lex_test =
  Test.make ~name:lex_name
    (Staged.stage (fun () ->
         List.iter
           (fun src ->
             match Phplang.Lexer.tokenize_significant src with
             | _ -> ()
             | exception Phplang.Lexer.Error _ -> ())
           sources14))

(* ------------------------------------------------------------------ *)
(* Bechamel driver                                                    *)
(* ------------------------------------------------------------------ *)

let benchmark tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = [ Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 3.0) ~stabilize:false
      ~kde:None ()
  in
  List.map
    (fun test ->
      let name = Test.Elt.name test in
      let raw = Benchmark.run cfg instances test in
      (name, Analyze.one ols Instance.monotonic_clock raw))
    tests

let print_bench_results results =
  Format.printf "@.== Bechamel micro-benchmarks (OLS over runs) ==@.";
  List.iter
    (fun (name, ols) ->
      let est =
        match Analyze.OLS.estimates ols with Some (x :: _) -> x | _ -> nan
      in
      let r2 =
        match Analyze.OLS.r_square ols with Some r -> r | None -> nan
      in
      Format.printf "%-34s %12.3f ms/run  (r²=%.3f)@." name (est /. 1e6) r2;
      if String.equal name lex_name then
        let bytes =
          List.fold_left (fun n s -> n + String.length s) 0 sources14
        in
        Format.printf "%-34s %12.1f MB/s@." ""
          (float_of_int bytes /. est *. 1e3))
    results

(* ------------------------------------------------------------------ *)
(* Main                                                               *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* --json FILE: machine-readable results (schema phpsafe-bench/1)      *)
(* ------------------------------------------------------------------ *)

let write_json path ~table3 ~seq_par ~e13 ~e16 ~e12 ~e14 ~e15 ~e17 =
  let open Json in
  let s6 = fixed 6 and s3 = fixed 3 in
  let opt f = function None -> Null | Some r -> f r in
  let metrics (m : Evalkit.Metrics.t) =
    Obj [ ("tp", Int m.Evalkit.Metrics.tp); ("fp", Int m.Evalkit.Metrics.fp);
          ("fn", Int m.Evalkit.Metrics.fn) ]
  in
  let seq, par = seq_par in
  let wall =
    Obj
      [ ("sequential_s", s6 seq); ("parallel_s", s6 par);
        ("table3",
         Obj
           (List.map
              (fun (name, t12, t14) ->
                (name, Obj [ ("v2012_s", s6 t12); ("v2014_s", s6 t14) ]))
              table3)) ]
  in
  let cache =
    let ns (s : Phplang.Store.stats) =
      let lookups = s.Phplang.Store.hits + s.Phplang.Store.misses in
      ( s.Phplang.Store.ns,
        Obj
          [ ("hits", Int s.Phplang.Store.hits);
            ("misses", Int s.Phplang.Store.misses);
            ("stores", Int s.Phplang.Store.stores);
            ("hit_rate",
             fixed 4
               (if lookups > 0 then
                  float_of_int s.Phplang.Store.hits /. float_of_int lookups
                else 0.)) ] )
    in
    Obj [ ("namespaces", Obj (List.map ns (Phplang.Store.counters ()))) ]
  in
  let e13_json =
    let open Evalkit.Delta in
    let flat, flow = pair e13 in
    Obj
      [ ("reals", Int e13.d_reals); ("foils", Int e13.d_foils);
        ("flat", metrics flat.dr_metrics); ("flow", metrics flow.dr_metrics);
        ("new_tp", Int (List.length flow.dr_new_tp));
        ("removed_fp", Int (List.length flow.dr_removed_fp)) ]
  in
  let e16_json =
    let open Evalkit.Delta in
    Obj
      [ ("reals", Int e16.d_reals); ("foils", Int e16.d_foils);
        ("so_only_two_phase", Bool (so_only_two_phase e16));
        ("variants",
         Obj
           (List.map
              (fun r ->
                ( r.dr_name,
                  Obj
                    (List.map
                       (fun (k, m) ->
                         (Secflow.Vuln.kind_spec_name k, metrics m))
                       r.dr_by_kind) ))
              e16.d_runs)) ]
  in
  let e12_json (r : Evalkit.Incremental.report) =
    let open Evalkit.Incremental in
    Obj
      [ ("files_2014", Int r.ir_files_2014);
        ("cold_total_s", s6 r.ir_cold_total);
        ("warm_total_s", s6 r.ir_warm_total);
        ("tools",
         Obj
           (List.map
              (fun p ->
                ( p.ip_tool,
                  Obj
                    [ ("cold_s", s6 p.ip_cold_s); ("warm_s", s6 p.ip_warm_s);
                      ("warm_replays", Int p.ip_warm_hits);
                      ("reused_from_2012", Int p.ip_reused) ] ))
              r.ir_points)) ]
  in
  let e14_json (r : Evalkit.Serve_bench.report) =
    let open Evalkit.Serve_bench in
    let pass p =
      Obj
        [ ("wall_s", s6 p.sp_wall_s); ("rps", s3 p.sp_rps);
          ("p50_ms", s3 p.sp_p50_ms); ("p99_ms", s3 p.sp_p99_ms) ]
    in
    Obj
      [ ("protocol", String Serve.Protocol.version);
        ("requests", Int r.sb_requests); ("clients", Int r.sb_clients);
        ("jobs", Int r.sb_jobs); ("cold", pass r.sb_cold);
        ("warm", pass r.sb_warm) ]
  in
  let e15_json (r : Evalkit.Chaos.report) =
    let open Evalkit.Chaos in
    Obj
      [ ("seed", Int r.ch_seed); ("rounds", Int r.ch_rounds);
        ("jobs", Int r.ch_jobs); ("requests", Int r.ch_requests);
        ("crashes", Int r.ch_crashes);
        ("unterminated", Int r.ch_unterminated);
        ("identity_ok", Bool r.ch_identity_ok);
        ("overshoot_p99_ms", s3 r.ch_overshoot_p99_ms);
        ("tolerance_ms", fixed 1 r.ch_tolerance_ms);
        ("scenarios",
         Obj
           (List.map
              (fun row ->
                ( row.cr_scenario,
                  Obj
                    [ ("report", Int row.cr_report);
                      ("deadline", Int row.cr_deadline);
                      ("overloaded", Int row.cr_overloaded);
                      ("transport", Int row.cr_transport);
                      ("other", Int row.cr_other) ] ))
              r.ch_rows)) ]
  in
  let e17_json (r : Evalkit.Editstorm.report) =
    let open Evalkit.Editstorm in
    Obj
      [ ("seed", Int r.es_seed); ("plugin", String r.es_plugin);
        ("files", Int r.es_files); ("projects", Int r.es_projects);
        ("edits", Int r.es_edits); ("violations", Int r.es_violations);
        ("single_def",
         Obj
           [ ("full_p50_ms", s3 r.es_single_full_p50_ms);
             ("inc_p50_ms", s3 r.es_single_inc_p50_ms);
             ("speedup", s3 r.es_single_speedup) ]) ]
  in
  Obs.write_file path
    (to_string
       (Obj
          [ ("schema", String "phpsafe-bench/1");
            ("jobs", Int (Sched.size pool));
            ("cache_enabled", Bool (Phplang.Store.enabled ()));
            ("wall", wall); ("cache", cache); ("e13", e13_json);
            ("e16", e16_json); ("e12", opt e12_json e12);
            ("e14", opt e14_json e14); ("e15", opt e15_json e15);
            ("e17", opt e17_json e17) ])
    ^ "\n");
  Format.eprintf "bench results written to %s@." path

let () =
  Format.printf "phpSAFE reproduction — full evaluation + benchmarks@.";
  Evalkit.Tables.full_report ~with_ablation:true Format.std_formatter ~ev2012
    ~ev2014;
  Format.printf
    "@.== TABLE III (paper protocol): wall time, average of %d runs ==@."
    timed_runs;
  let table3 =
    List.map
      (fun (tool : Secflow.Tool.t) ->
        let t12 = detection_time tool corpus12 in
        let t14 = detection_time tool corpus14 in
        Format.printf "%-8s  V.2012: %6.2f s   V.2014: %6.2f s@."
          tool.Secflow.Tool.name t12 t14;
        (tool.Secflow.Tool.name, t12, t14))
      tools
  in
  let seq_par = sequential_vs_parallel () in
  (* wall times and cache-path-dependent parse counts: stderr *)
  Format.eprintf "@.== scheduler / parse-cache instrumentation ==@.";
  Format.eprintf "-- version 2012 --@.%a" Sched.pp_stats stats2012;
  Format.eprintf "-- version 2014 --@.%a" Sched.pp_stats stats2014;
  (* E10: scaling study *)
  Evalkit.Scaling.print Format.std_formatter
    (Evalkit.Scaling.measure Corpus.Plan.V2012);
  (* E11: context-sensitivity precision delta *)
  Evalkit.Delta.(print_contexts Format.std_formatter (contexts ()));
  (* E13: flow-sensitivity precision delta *)
  let e13 = Evalkit.Delta.flow () in
  Evalkit.Delta.print_flow Format.std_formatter e13;
  (* E16: per-class precision/recall of the new vulnerability classes *)
  let e16 = Evalkit.Delta.classes () in
  Evalkit.Delta.print_classes Format.std_formatter e16;
  (* E12: incremental re-analysis against the persistent cache (runs in its
     own temporary cache directories; skipped only under --no-cache) *)
  let e12 =
    if no_cache then None
    else begin
      let r = Evalkit.Incremental.measure ~corpus12 ~corpus14 () in
      Evalkit.Incremental.print Format.std_formatter r;
      Some r
    end
  in
  (* E14: sustained-throughput serving over the phpsafe-serve/1 protocol
     (its own temporary cache and socket dirs; skipped under --no-cache) *)
  let e14 =
    if no_cache then None
    else begin
      let r = Evalkit.Serve_bench.measure ~corpus:corpus12 () in
      Evalkit.Serve_bench.print Format.std_formatter r;
      Some r
    end
  in
  (* E15: service-layer chaos against live daemons (its own temporary cache
     and socket dirs; skipped under --no-cache like the other serve runs) *)
  let e15 =
    if no_cache then None
    else begin
      let r = Evalkit.Chaos.run ~jobs:(Sched.size pool) () in
      Evalkit.Chaos.print Format.std_formatter r;
      Some r
    end
  in
  (* E17: sub-file incremental re-analysis under an edit storm (its own
     temporary store directory; skipped under --no-cache) *)
  let e17 =
    if no_cache then None
    else begin
      let r = Evalkit.Editstorm.measure ~corpus:corpus12 () in
      Evalkit.Editstorm.print Format.std_formatter r;
      Some r
    end
  in
  Option.iter
    (fun path ->
      write_json path ~table3 ~seq_par ~e13 ~e16 ~e12 ~e14 ~e15 ~e17)
    json_out;
  if Phplang.Store.enabled () then
    Format.eprintf "%a" Phplang.Store.pp_counters ();
  let tests =
    table1_test :: figure2_test :: table2_test :: inertia_test :: corpus_test
    :: lex_test :: table3_tests
    |> List.concat_map Test.elements
  in
  let results = benchmark tests in
  print_bench_results results;
  Obs.export ~summary:true ?trace:trace_out ?metrics:metrics_out ();
  Format.printf "@.done.@."
