(** Runs the full paper evaluation (both corpus versions, all three tools)
    and prints every table and figure of §V with the paper-reported values
    alongside.

    The (tool × plugin) analysis grid fans out across a domain pool; size
    it with [--jobs N] (or [-j N]), or the [PHPSAFE_JOBS] environment
    variable, defaulting to the machine's recommended domain count.  The
    tables are byte-identical whatever the pool size — only wall time
    changes.

    Observability: [--trace out.json] writes a Chrome trace-event file (one
    track per domain; open in Perfetto) and [--metrics out.json] a metrics
    JSON with per-tool × per-stage wall times and counters (parse-cache hit
    rate, summaries built, findings pre/post-dedup, ...).  Either flag also
    prints the human summary to stderr; stdout stays byte-identical with or
    without them.

    [--contexts] appends experiment E11: the precision delta of phpSAFE's
    sink-context-sensitive sanitization pass over the dedicated context
    suite.  [--flow] appends experiment E13: the precision delta of the
    flow-sensitive body walk over the dedicated flow suite.  [--classes]
    appends experiment E16: per-class precision/recall of the four new
    vulnerability classes (cmdi, lfi, ssrf, so-sqli) over the dedicated
    class suite.  Without the flags the output is unchanged.

    [--timed] appends the timed experiments after every untimed table:
    Table III by the paper's protocol (average of 5 runs), the six Table
    III runs sequentially vs across the pool, the E10 scaling study, and —
    unless [--no-cache] — E12, E14, E15 and E17, which run in temporary
    cache and socket directories of their own.  [--json FILE] writes the
    machine-readable results (schema [phpsafe-bench/1]); a key is [null]
    when its experiment did not run. *)

open Evalkit

(* Table III the paper's way: average of five runs — but on the monotonic
   wall clock (Runner.run_tool's Obs.Clock), not Sys.time: CPU time sums
   across domains and over-reports whenever a pool is active in the same
   process. *)
let timed_runs = 5

let detection_time tool corpus =
  let total = ref 0. in
  for _ = 1 to timed_runs do
    total := !total +. (Runner.run_tool tool corpus).Runner.tr_seconds
  done;
  !total /. float_of_int timed_runs

let wall_clock f =
  let t0 = Obs.Clock.now () in
  f ();
  Obs.Clock.now () -. t0

(* Run [measure] and print its table when [on]; the result feeds --json. *)
let when_on on ppf measure print =
  if on then begin
    let r = measure () in
    print ppf r;
    Some r
  end
  else None

(* ------------------------------------------------------------------ *)
(* phpsafe-bench/1 encoders                                           *)
(* ------------------------------------------------------------------ *)

let s6 = Json.fixed 6
let s3 = Json.fixed 3
let json_opt f = function None -> Json.Null | Some r -> f r

let metrics_json (m : Metrics.t) =
  Json.(Obj [ ("tp", Int m.Metrics.tp); ("fp", Int m.Metrics.fp);
              ("fn", Int m.Metrics.fn) ])

let cache_json () =
  let open Json in
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

let e13_json (e13 : Delta.t) =
  let open Delta in
  let flat, flow = pair e13 in
  Json.(
    Obj
      [ ("reals", Int e13.d_reals); ("foils", Int e13.d_foils);
        ("flat", metrics_json flat.dr_metrics);
        ("flow", metrics_json flow.dr_metrics);
        ("new_tp", Int (List.length flow.dr_new_tp));
        ("removed_fp", Int (List.length flow.dr_removed_fp)) ])

let e16_json (e16 : Delta.t) =
  let open Delta in
  let variant r =
    ( r.dr_name,
      Json.Obj
        (List.map
           (fun (k, m) -> (Secflow.Vuln.kind_spec_name k, metrics_json m))
           r.dr_by_kind) )
  in
  Json.(
    Obj
      [ ("reals", Int e16.d_reals); ("foils", Int e16.d_foils);
        ("so_only_two_phase", Bool (so_only_two_phase e16));
        ("variants", Obj (List.map variant e16.d_runs)) ])

let e12_json (r : Incremental.report) =
  let open Incremental in
  let point p =
    ( p.ip_tool,
      Json.Obj
        [ ("cold_s", s6 p.ip_cold_s); ("warm_s", s6 p.ip_warm_s);
          ("warm_replays", Int p.ip_warm_hits);
          ("reused_from_2012", Int p.ip_reused) ] )
  in
  Json.Obj
    [ ("files_2014", Int r.ir_files_2014);
      ("cold_total_s", s6 r.ir_cold_total);
      ("warm_total_s", s6 r.ir_warm_total);
      ("tools", Obj (List.map point r.ir_points)) ]

let e14_json (r : Serve_bench.report) =
  let open Serve_bench in
  let pass p =
    Json.Obj
      [ ("wall_s", s6 p.sp_wall_s); ("rps", s3 p.sp_rps);
        ("p50_ms", s3 p.sp_p50_ms); ("p99_ms", s3 p.sp_p99_ms) ]
  in
  Json.Obj
    [ ("protocol", String Serve.Protocol.version);
      ("requests", Int r.sb_requests); ("clients", Int r.sb_clients);
      ("jobs", Int r.sb_jobs); ("cold", pass r.sb_cold);
      ("warm", pass r.sb_warm) ]

let e15_json (r : Chaos.report) =
  let open Chaos in
  let row r =
    ( r.cr_scenario,
      Json.Obj
        [ ("report", Int r.cr_report); ("deadline", Int r.cr_deadline);
          ("overloaded", Int r.cr_overloaded);
          ("transport", Int r.cr_transport); ("other", Int r.cr_other) ] )
  in
  Json.Obj
    [ ("seed", Int r.ch_seed); ("rounds", Int r.ch_rounds);
      ("jobs", Int r.ch_jobs); ("requests", Int r.ch_requests);
      ("crashes", Int r.ch_crashes);
      ("unterminated", Int r.ch_unterminated);
      ("identity_ok", Bool r.ch_identity_ok);
      ("overshoot_p99_ms", s3 r.ch_overshoot_p99_ms);
      ("tolerance_ms", Json.fixed 1 r.ch_tolerance_ms);
      ("scenarios", Obj (List.map row r.ch_rows)) ]

let e17_json (r : Editstorm.report) =
  let open Editstorm in
  Json.Obj
    [ ("seed", Int r.es_seed); ("plugin", String r.es_plugin);
      ("files", Int r.es_files); ("projects", Int r.es_projects);
      ("edits", Int r.es_edits); ("violations", Int r.es_violations);
      ("single_def",
       Obj
         [ ("full_p50_ms", s3 r.es_single_full_p50_ms);
           ("inc_p50_ms", s3 r.es_single_inc_p50_ms);
           ("speedup", s3 r.es_single_speedup) ]) ]

(* ------------------------------------------------------------------ *)
(* --timed                                                            *)
(* ------------------------------------------------------------------ *)

(* Runs after the untimed tables, so Table III times analysis over a warm
   parse memo (EXPERIMENTS.md E4).  Returns the phpsafe-bench/1 keys it
   fills. *)
let timed ~pool ~no_cache ppf (ev2012 : Runner.evaluation)
    (ev2014 : Runner.evaluation) =
  let corpus12 = ev2012.Runner.ev_corpus
  and corpus14 = ev2014.Runner.ev_corpus in
  let tools = Runner.default_tools () in
  Format.fprintf ppf
    "@.== TABLE III (paper protocol): wall time, average of %d runs ==@."
    timed_runs;
  let table3 =
    List.map
      (fun (tool : Secflow.Tool.t) ->
        let t12 = detection_time tool corpus12 in
        let t14 = detection_time tool corpus14 in
        Format.fprintf ppf "%-8s  V.2012: %6.2f s   V.2014: %6.2f s@."
          tool.Secflow.Tool.name t12 t14;
        (tool.Secflow.Tool.name,
         Json.Obj [ ("v2012_s", s6 t12); ("v2014_s", s6 t14) ]))
      tools
  in
  (* the same six runs once sequentially, once fanned out across the pool *)
  let items =
    List.concat_map (fun tool -> [ (tool, corpus12); (tool, corpus14) ]) tools
  in
  let work (tool, corpus) = ignore (Runner.run_tool tool corpus) in
  let seq = wall_clock (fun () -> List.iter work items) in
  let par = wall_clock (fun () -> ignore (Sched.map ~pool work items)) in
  Format.fprintf ppf
    "@.== Table III whole-corpus runs: sequential vs parallel wall clock ==@.";
  Format.fprintf ppf
    "sequential: %6.2fs   parallel (%d domains): %6.2fs   speedup: %.2fx@."
    seq (Sched.size pool) par
    (if par > 0. then seq /. par else nan);
  Scaling.print ppf (Scaling.measure Corpus.Plan.V2012);
  (* each of these brings its own temporary cache (and socket) dirs *)
  let cached measure print to_json =
    json_opt to_json (when_on (not no_cache) ppf measure print)
  in
  let e12 =
    cached
      (fun () -> Incremental.measure ~corpus12 ~corpus14 ())
      Incremental.print e12_json
  in
  let e14 =
    cached
      (fun () -> Serve_bench.measure ~corpus:corpus12 ())
      Serve_bench.print e14_json
  in
  let e15 =
    cached (fun () -> Chaos.run ~jobs:(Sched.size pool) ()) Chaos.print e15_json
  in
  let e17 =
    cached
      (fun () -> Editstorm.measure ~corpus:corpus12 ())
      Editstorm.print e17_json
  in
  [ ("wall",
     Json.Obj
       [ ("sequential_s", s6 seq); ("parallel_s", s6 par);
         ("table3", Obj table3) ]);
    ("e12", e12); ("e14", e14); ("e15", e15); ("e17", e17) ]

let write_json path ~pool ~e13 ~e16 timings =
  let timed key = Option.fold ~none:Json.Null ~some:(List.assoc key) timings in
  Obs.write_file path
    (Json.to_string
       (Obj
          [ ("schema", String "phpsafe-bench/1");
            ("jobs", Int (Sched.size pool));
            ("cache_enabled", Bool (Phplang.Store.enabled ()));
            ("wall", timed "wall"); ("cache", cache_json ());
            ("e13", json_opt e13_json e13); ("e16", json_opt e16_json e16);
            ("e12", timed "e12"); ("e14", timed "e14");
            ("e15", timed "e15"); ("e17", timed "e17") ])
    ^ "\n");
  Format.eprintf "results written to %s@." path

let run jobs export budget no_cache with_contexts with_flow with_classes
    with_timed json_out =
  Secflow.Budget.set budget;
  let pool =
    match jobs with
    | Some size -> Sched.create ~size ()
    | None -> Sched.create ()
  in
  Obs.set_gauge "sched.pool_size" (float_of_int (Sched.size pool));
  let ev2012, st2012 = Runner.evaluate_with_stats ~pool Corpus.Plan.V2012 in
  let ev2014, st2014 = Runner.evaluate_with_stats ~pool Corpus.Plan.V2014 in
  let ppf = Format.std_formatter in
  Tables.full_report ~with_ablation:true ppf ~ev2012 ~ev2014;
  Format.printf "@.-- version 2012 --@.";
  Pattern_report.print ppf (Pattern_report.compute ev2012);
  Format.printf "@.-- version 2014 --@.";
  Pattern_report.print ppf (Pattern_report.compute ev2014);
  (* the scheduler block carries wall times and cache-path-dependent
     parse counts, so it goes to stderr with the other run diagnostics *)
  Format.eprintf "@.== scheduler / parse-cache instrumentation ==@.";
  Format.eprintf "-- version 2012 --@.%a" Sched.pp_stats st2012;
  Format.eprintf "-- version 2014 --@.%a" Sched.pp_stats st2014;
  (* E11, E13 and E16 are opt-in so the default stdout stays
     byte-identical; each delta runs sequentially, so its table does not
     depend on --jobs *)
  if with_contexts then Delta.(print_contexts ppf (contexts ()));
  let e13 = when_on with_flow ppf Delta.flow Delta.print_flow in
  let e16 = when_on with_classes ppf Delta.classes Delta.print_classes in
  let timings =
    if with_timed then Some (timed ~pool ~no_cache ppf ev2012 ev2014) else None
  in
  Option.iter (fun path -> write_json path ~pool ~e13 ~e16 timings) json_out;
  (* cache counters go to stderr: stdout must stay byte-identical whether
     the run was cold, warm or uncached *)
  if Phplang.Store.enabled () then
    Format.eprintf "%a" Phplang.Store.pp_counters ();
  export ()

open Cmdliner

let jobs =
  let doc =
    "Domain-pool size for the (tool × plugin) grid; defaults to
     $(b,PHPSAFE_JOBS), else the machine's recommended domain count."
  in
  Arg.(
    value
    & opt (some (Serve.Cli.positive "pool size")) None
    & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let experiment name what =
  let doc = Printf.sprintf "Append experiment %s." what in
  Arg.(value & flag & info [ name ] ~doc)

let timed_flag =
  let doc =
    "Append the timed experiments: Table III by the paper's protocol
     (average of 5 runs), sequential vs parallel wall clock, the E10
     scaling study, and E12, E14, E15 and E17 (skipped under
     $(b,--no-cache))."
  in
  Arg.(value & flag & info [ "timed" ] ~doc)

let json_out =
  let doc =
    "Write the results as JSON (schema phpsafe-bench/1) to $(docv); a key
     is null when its experiment did not run."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let cmd =
  let doc = "run the paper's full evaluation and print every table of §V" in
  Cmd.v
    (Cmd.info "evaluate" ~doc)
    Term.(
      const run $ jobs $ Serve.Cli.obs ~summary:true $ Serve.Cli.budget
      $ Serve.Cli.cache
      $ experiment "contexts"
          "E11: the precision delta of phpSAFE's sink-context-sensitive \
           sanitization over the context suite"
      $ experiment "flow"
          "E13: the precision delta of the flow-sensitive body walk over \
           the flow suite"
      $ experiment "classes"
          "E16: per-class precision/recall of cmdi, lfi, ssrf and so-sqli \
           over the class suite"
      $ timed_flag $ json_out)

let () = exit (Cmd.eval cmd)
