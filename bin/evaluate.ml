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
    class suite.  Without the flags the output is unchanged. *)

let run jobs export budget () with_contexts with_flow with_classes =
  Secflow.Budget.set budget;
  let pool =
    match jobs with
    | Some size -> Sched.create ~size ()
    | None -> Sched.create ()
  in
  Obs.set_gauge "sched.pool_size" (float_of_int (Sched.size pool));
  let ev2012, st2012 = Evalkit.Runner.evaluate_with_stats ~pool Corpus.Plan.V2012 in
  let ev2014, st2014 = Evalkit.Runner.evaluate_with_stats ~pool Corpus.Plan.V2014 in
  Evalkit.Tables.full_report ~with_ablation:true Format.std_formatter ~ev2012
    ~ev2014;
  Format.printf "@.-- version 2012 --@.";
  Evalkit.Pattern_report.print Format.std_formatter
    (Evalkit.Pattern_report.compute ev2012);
  Format.printf "@.-- version 2014 --@.";
  Evalkit.Pattern_report.print Format.std_formatter
    (Evalkit.Pattern_report.compute ev2014);
  (* the scheduler block carries wall times and cache-path-dependent
     parse counts, so it goes to stderr with the other run diagnostics *)
  Format.eprintf "@.== scheduler / parse-cache instrumentation ==@.";
  Format.eprintf "-- version 2012 --@.%a" Sched.pp_stats st2012;
  Format.eprintf "-- version 2014 --@.%a" Sched.pp_stats st2014;
  (* E11, E13 and E16 are opt-in so the default stdout stays
     byte-identical; each delta runs sequentially, so its table does not
     depend on --jobs *)
  let ppf = Format.std_formatter in
  if with_contexts then Evalkit.Delta.(print_contexts ppf (contexts ()));
  if with_flow then Evalkit.Delta.(print_flow ppf (flow ()));
  if with_classes then Evalkit.Delta.(print_classes ppf (classes ()));
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
           over the class suite")

let () = exit (Cmd.eval cmd)
