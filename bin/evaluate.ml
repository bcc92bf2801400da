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

let jobs_from_argv () =
  let rec scan = function
    | ("--jobs" | "-j") :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 -> Some n
        | _ -> scan rest)
    | _ :: rest -> scan rest
    | [] -> None
  in
  scan (Array.to_list Sys.argv)

let path_opt_from_argv flag =
  let rec scan = function
    | f :: path :: _ when String.equal f flag -> Some path
    | _ :: rest -> scan rest
    | [] -> None
  in
  scan (Array.to_list Sys.argv)

let int_opt_from_argv flag =
  match path_opt_from_argv flag with
  | None -> None
  | Some v -> (
      match int_of_string_opt v with
      | Some n when n >= 1 -> Some n
      | _ ->
          Printf.eprintf "evaluate: ignoring invalid %s=%S\n%!" flag v;
          None)

(* Resource budgets (Secflow.Budget): parser nesting fuel, Pixy fixpoint
   pass cap, include-closure caps.  Exhaustion degrades the affected file
   to a Failed (Budget_exhausted _) row in the §V.E table. *)
let budget_from_argv () =
  let d = Secflow.Budget.default in
  let get flag default = Option.value (int_opt_from_argv flag) ~default in
  {
    Secflow.Budget.parse_depth =
      get "--budget-parse-depth" d.Secflow.Budget.parse_depth;
    fixpoint_passes =
      get "--budget-fixpoint-passes" d.Secflow.Budget.fixpoint_passes;
    include_depth = get "--budget-include-depth" d.Secflow.Budget.include_depth;
    include_files = get "--budget-include-files" d.Secflow.Budget.include_files;
  }

(* Persistent cache root: [--cache-dir DIR] overrides [PHPSAFE_CACHE_DIR];
   [--no-cache] disables the disk tier entirely.  The tables on stdout are
   byte-identical with or without a cache — only wall time and the cache
   counters on stderr change. *)
let cache_setup () =
  if Array.exists (String.equal "--no-cache") Sys.argv then
    Phplang.Store.set_root None
  else
    match path_opt_from_argv "--cache-dir" with
    | Some dir -> Phplang.Store.set_root (Some dir)
    | None -> ()

let () =
  Secflow.Budget.set (budget_from_argv ());
  cache_setup ();
  let trace_out = path_opt_from_argv "--trace" in
  let metrics_out = path_opt_from_argv "--metrics" in
  if trace_out <> None || metrics_out <> None then Obs.set_enabled true;
  let pool =
    match jobs_from_argv () with
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
  let flag f = Array.exists (String.equal f) Sys.argv in
  let ppf = Format.std_formatter in
  if flag "--contexts" then Evalkit.Delta.(print_contexts ppf (contexts ()));
  if flag "--flow" then Evalkit.Delta.(print_flow ppf (flow ()));
  if flag "--classes" then Evalkit.Delta.(print_classes ppf (classes ()));
  (* cache counters go to stderr: stdout must stay byte-identical whether
     the run was cold, warm or uncached *)
  if Phplang.Store.enabled () then
    Format.eprintf "%a" Phplang.Store.pp_counters ();
  Obs.export ~summary:true ?trace:trace_out ?metrics:metrics_out ()
