(** phpSAFE command-line interface.

    Scans a PHP file or a directory tree (a plugin) for XSS and SQLi
    vulnerabilities and prints a text report with the data-flow trace of
    each finding — the CLI counterpart of the web interface described in
    paper §III. *)

let kind_filter kinds =
  match Serve.Scan.kind_of_string kinds with
  | Ok k -> k
  | Error msg -> failwith msg

(* --watch: poll the target, re-analyze incrementally on every change and
   print the finding delta.  Reports stay byte-identical to a cold scan of
   the same bytes; only the re-parse work shrinks to the damaged regions
   (see Serve.Watch).  Bounded runs (--watch-max-events) exist for smoke
   tests; interactive use runs until interrupted. *)
let watch_loop target opts ~poll_ms ~max_events =
  let session = Serve.Watch.create opts in
  let last = ref [] in
  let counter_deltas () =
    let now = Serve.Watch.incremental_counters () in
    let delta =
      List.filter_map
        (fun (k, v) ->
          let prev =
            Option.value ~default:0 (List.assoc_opt k !last)
          in
          if v > prev then Some (Printf.sprintf "%s+%d" k (v - prev))
          else None)
        now
    in
    last := now;
    delta
  in
  let remaining = ref 0 in
  let on_event (d : Serve.Watch.delta) =
    remaining := d.Serve.Watch.d_total;
    if d.Serve.Watch.d_initial then
      Format.printf "watch: initial scan: %d finding(s) (%.1f ms)@."
        d.Serve.Watch.d_total d.Serve.Watch.d_ms
    else begin
      Format.printf
        "watch: %d changed, %d deleted: +%d/-%d finding(s), %d total (%.1f \
         ms)@."
        (List.length d.Serve.Watch.d_changed)
        (List.length d.Serve.Watch.d_deleted)
        (List.length d.Serve.Watch.d_added)
        (List.length d.Serve.Watch.d_removed)
        d.Serve.Watch.d_total d.Serve.Watch.d_ms;
      List.iter
        (fun f -> Format.printf "  + %a@." Secflow.Report.pp_finding f)
        d.Serve.Watch.d_added;
      List.iter
        (fun f -> Format.printf "  - %a@." Secflow.Report.pp_finding f)
        d.Serve.Watch.d_removed
    end;
    (match counter_deltas () with
    | [] -> ()
    | ds -> Format.printf "  incremental: %s@." (String.concat " " ds));
    ignore (d.Serve.Watch.d_report : string)
  in
  Format.printf "watch: %s: polling every %d ms@." target poll_ms;
  Serve.Watch.loop session
    ~load:(fun () -> Phplang.Project.load target)
    ~poll_ms ?max_events ~on_event ();
  (* bounded runs gate like a plain scan: 1 when findings remain after the
     last delivered event, 0 on a clean final state *)
  if !remaining > 0 then 1 else 0

let run target kinds show_trace tool_name quiet format html_out json_out
    config_path show_stats trace_out metrics_out budget contexts flow
    second_order cache_dir no_cache watch watch_poll_ms watch_max_events =
  Secflow.Budget.set budget;
  (* persistent analysis cache: --cache-dir overrides PHPSAFE_CACHE_DIR,
     --no-cache disables both; findings are identical either way *)
  if no_cache then Phplang.Store.set_root None
  else Option.iter (fun d -> Phplang.Store.set_root (Some d)) cache_dir;
  if trace_out <> None || metrics_out <> None then Obs.set_enabled true;
  if watch then begin
    if config_path <> None then
      failwith "--watch does not support --config (use the built-in profiles)";
    let opts =
      { Serve.Scan.tool = tool_name; kind = kind_filter kinds; contexts;
        flow; second_order }
    in
    (match Serve.Scan.tool_of opts with
    | Ok _ -> ()
    | Error msg -> failwith msg);
    exit (watch_loop target opts ~poll_ms:watch_poll_ms
            ~max_events:watch_max_events)
  end;
  let project = Phplang.Project.load target in
  if show_stats then
    Format.printf "project stats: %a@." Phpsafe.Stats.pp
      (Phpsafe.Stats.of_project project);
  let tool =
    match (String.lowercase_ascii tool_name, config_path) with
    | "phpsafe", Some path ->
        (* custom configuration profile, merged over generic PHP so the
           language builtins stay known (paper §III.A extensibility); a
           custom entry cannot override a builtin one of the same name *)
        let custom, parse_warnings = Phpsafe.Config_spec.load_with_warnings path in
        List.iter
          (fun w -> Format.eprintf "phpsafe: config warning: %s@." w)
          (parse_warnings
          @ Phpsafe.Config_spec.validate ~base:Phpsafe.Config.generic_php custom);
        let config = Phpsafe.Config.extend Phpsafe.Config.generic_php custom in
        let opts =
          { Phpsafe.default_options with
            Phpsafe.config;
            Phpsafe.infer_contexts = contexts;
            Phpsafe.flow_sensitive = flow }
        in
        { Secflow.Tool.name = "phpSAFE";
          analyze_project =
            (fun p ->
              if second_order then Phpsafe.analyze_project_so ~opts p
              else Phpsafe.analyze_project ~opts p) }
    | _, _ -> (
        (* the same construction the serving daemon uses, so a scan here and
           a scan there produce byte-identical reports *)
        match
          Serve.Scan.tool_of
            { Serve.Scan.tool = tool_name; kind = None; contexts; flow;
              second_order }
        with
        | Ok t -> t
        | Error msg -> failwith msg)
  in
  let result = tool.Secflow.Tool.analyze_project project in
  let wanted = kind_filter kinds in
  let findings =
    List.filter
      (fun (f : Secflow.Report.finding) ->
        match wanted with
        | None -> true
        | Some k -> Secflow.Vuln.equal_kind f.Secflow.Report.kind k)
      result.Secflow.Report.findings
  in
  (match format with
  | "json" ->
      (* the shared machine-readable encoding, byte-identical to the
         [report] document in a phpsafe_serve scan reply *)
      print_string
        (Secflow.Report.to_json ~tool:tool.Secflow.Tool.name
           { result with Secflow.Report.findings });
      print_newline ()
  | "text" ->
      if not quiet then begin
        Format.printf "%s: analyzed %d files of %s@." tool.Secflow.Tool.name
          (List.length result.Secflow.Report.outcomes)
          project.Phplang.Project.name;
        List.iter
          (fun (path, outcome) ->
            match outcome with
            | Secflow.Report.Analyzed -> ()
            | Secflow.Report.Failed reason ->
                let why =
                  match reason with
                  | Secflow.Report.Out_of_memory ->
                      "include closure exceeds memory budget"
                  | Secflow.Report.Unsupported_syntax what ->
                      "unsupported: " ^ what
                  | Secflow.Report.Parse_failure msg -> "parse failure: " ^ msg
                  | Secflow.Report.Crashed msg -> "analysis crashed: " ^ msg
                  | Secflow.Report.Budget_exhausted msg ->
                      "resource budget exhausted: " ^ msg
                in
                Format.printf "  ! could not analyze %s (%s)@." path why)
          result.Secflow.Report.outcomes
      end;
      List.iter
        (fun f ->
          Format.printf "%a@." Secflow.Report.pp_finding f;
          if show_trace then Format.printf "%a" Secflow.Report.pp_trace f)
        findings;
      Format.printf "%d finding(s)@." (List.length findings)
  | other -> failwith ("unknown output format: " ^ other));
  (match json_out with
  | Some path ->
      Obs.write_file path
        (Secflow.Report.to_json ~tool:tool.Secflow.Tool.name
           { result with Secflow.Report.findings });
      Format.printf "JSON report written to %s@." path
  | None -> ());
  (match html_out with
  | Some path ->
      let html =
        Phpsafe.Report_html.render
          ~title:(Printf.sprintf "%s — %s" tool.Secflow.Tool.name target)
          { result with Secflow.Report.findings }
      in
      Obs.write_file path html;
      Format.printf "HTML report written to %s@." path
  | None -> ());
  Obs.export ?trace:trace_out ?metrics:metrics_out ();
  if Phplang.Store.enabled () then
    Format.eprintf "%a" Phplang.Store.pp_counters ();
  (* CI-friendly exit status: 2 = some file could not be analyzed,
     1 = findings remain after the --kind filter, 0 = clean scan *)
  let any_failed =
    List.exists
      (fun (_, outcome) ->
        match outcome with
        | Secflow.Report.Failed _ -> true
        | Secflow.Report.Analyzed -> false)
      result.Secflow.Report.outcomes
  in
  if any_failed then 2 else if findings <> [] then 1 else 0

open Cmdliner

let target =
  let doc = "PHP file or plugin directory to analyze." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TARGET" ~doc)

let kinds =
  let doc =
    "Vulnerability kinds to report: $(b,xss), $(b,sqli), $(b,cmdi)
     (command injection), $(b,lfi) (path traversal / local file
     inclusion), $(b,ssrf), $(b,so-sqli) (second-order SQLi; see
     $(b,--second-order)) or $(b,all)."
  in
  Arg.(value & opt string "all" & info [ "k"; "kind"; "kinds" ] ~docv:"KIND" ~doc)

let trace =
  let doc = "Print the tainted data-flow trace of each finding." in
  Arg.(value & flag & info [ "t"; "flow-trace" ] ~doc)

let trace_out =
  let doc =
    "Write a Chrome trace-event JSON of the analysis (per-stage spans, one
     track per domain) to $(docv); open it in https://ui.perfetto.dev."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_out =
  let doc =
    "Write machine-readable metrics JSON (stage wall times, parse-cache
     hit rate, summaries built, findings pre/post-dedup) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let tool =
  let doc = "Analyzer to run: phpsafe (default), rips or pixy." in
  Arg.(value & opt string "phpsafe" & info [ "tool" ] ~docv:"TOOL" ~doc)

let quiet =
  let doc = "Only print findings." in
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc)

let format =
  let doc =
    "Report format on stdout: $(b,text) (default) or $(b,json) — the
     machine-readable phpsafe-report/1 document, byte-identical to the
     report in a $(b,phpsafe_serve) scan reply for the same inputs."
  in
  Arg.(value & opt string "text" & info [ "format" ] ~docv:"FORMAT" ~doc)

let html_out =
  let doc = "Also write an HTML review page (the paper's web output) to $(docv)." in
  Arg.(value & opt (some string) None & info [ "html" ] ~docv:"FILE" ~doc)

let json_out =
  let doc = "Also write a machine-readable JSON report to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let show_stats =
  let doc = "Print project statistics (files, tokens, functions, sinks, ...)." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let contexts =
  let doc =
    "Infer the output context of each sink occurrence (HTML body, quoted or
     unquoted attribute, URL, script string; quoted/numeric/identifier SQL
     position) and accept only sanitizers adequate for it; only meaningful
     with --tool phpsafe."
  in
  Arg.(value & flag & info [ "contexts" ] ~doc)

let flow =
  let doc =
    "Run body walks flow-sensitively over a control-flow graph: sanitization
     applied on one branch of a conditional no longer suppresses findings on
     the unsanitized branch, and loops re-generate taint assigned after a
     sink; only meaningful with --tool phpsafe."
  in
  Arg.(value & flag & info [ "flow" ] ~doc)

let second_order =
  let doc =
    "Run the two-phase second-order SQLi analysis: a first pass records
     the keys under which SQL-tainted data is written to persistent
     storage, then a second pass re-analyzes with matching reads treated
     as attacker-controlled sources (kind $(b,so-sqli)); only meaningful
     with --tool phpsafe."
  in
  Arg.(value & flag & info [ "second-order" ] ~doc)

let cache_dir =
  let doc =
    "Keep a persistent content-addressed analysis cache (parse artifacts,
     function summaries, per-file results) under $(docv); reused across
     runs, shared between processes.  Defaults to $(b,PHPSAFE_CACHE_DIR)
     when set.  Findings are byte-identical with or without it."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let no_cache =
  let doc = "Ignore $(b,PHPSAFE_CACHE_DIR) and run without the disk cache." in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let watch =
  let doc =
    "Keep running: poll $(b,TARGET) for changes and re-analyze
     incrementally on every edit (checkpointed re-lexing + region
     re-parse), printing the finding delta of each change.  Reports stay
     byte-identical to a fresh scan of the same bytes."
  in
  Arg.(value & flag & info [ "w"; "watch" ] ~doc)

let watch_poll_ms =
  let doc = "Polling interval for $(b,--watch), in milliseconds." in
  Arg.(value & opt int 500 & info [ "watch-poll-ms" ] ~docv:"MS" ~doc)

let watch_max_events =
  let doc =
    "Exit after $(docv) watch events (the initial scan counts as one),
     with status 1 when findings remain and 0 when the last scan was
     clean; for scripted/smoke use.  Unbounded when omitted."
  in
  Arg.(
    value
    & opt (some int) None
    & info [ "watch-max-events" ] ~docv:"N" ~doc)

let config_path =
  let doc =
    "Extend the phpSAFE configuration with a spec file (see      Phpsafe.Config_spec); only meaningful with --tool phpsafe."
  in
  Arg.(value & opt (some string) None & info [ "config" ] ~docv:"FILE" ~doc)

(* Resource budgets (Secflow.Budget): every exhaustion degrades the file to
   a Failed (Budget_exhausted _) outcome instead of crashing or hanging. *)
let budget =
  let default = Secflow.Budget.default in
  let parse_depth =
    let doc =
      "Parser nesting-depth fuel: expressions/statements nested deeper than
       $(docv) levels fail the file with a budget-exhausted outcome."
    in
    Arg.(
      value
      & opt int default.Secflow.Budget.parse_depth
      & info [ "budget-parse-depth" ] ~docv:"N" ~doc)
  in
  let fixpoint_passes =
    let doc =
      "Cap on dataflow fixpoint passes per body, for Pixy and for phpSAFE's
       $(b,--flow) walk; hitting it keeps the findings made so far (partial,
       since more passes could only add taint) but reports the file as
       budget-exhausted."
    in
    Arg.(
      value
      & opt int default.Secflow.Budget.fixpoint_passes
      & info [ "budget-fixpoint-passes" ] ~docv:"N" ~doc)
  in
  let include_depth =
    let doc = "Include-closure chain-depth safety cap." in
    Arg.(
      value
      & opt int default.Secflow.Budget.include_depth
      & info [ "budget-include-depth" ] ~docv:"N" ~doc)
  in
  let include_files =
    let doc = "Include-closure size safety cap (files per closure)." in
    Arg.(
      value
      & opt int default.Secflow.Budget.include_files
      & info [ "budget-include-files" ] ~docv:"N" ~doc)
  in
  let mk parse_depth fixpoint_passes include_depth include_files =
    { Secflow.Budget.parse_depth; fixpoint_passes; include_depth;
      include_files }
  in
  Term.(const mk $ parse_depth $ fixpoint_passes $ include_depth $ include_files)

let cmd =
  let doc =
    "static vulnerability analysis (XSS, SQLi, command injection, path
     traversal/LFI, SSRF, second-order SQLi) for PHP plugins (phpSAFE
     reproduction)"
  in
  let exits =
    Cmd.Exit.info 0 ~doc:"on a clean scan (no findings, every file analyzed)."
    :: Cmd.Exit.info 1 ~doc:"when findings remain after the $(b,--kind) filter."
    :: Cmd.Exit.info 2 ~doc:"when any file's analysis outcome is a failure."
    :: Cmd.Exit.defaults
  in
  let info = Cmd.info "phpsafe" ~version:"1.0.0" ~doc ~exits in
  Cmd.v info
    Term.(
      const run $ target $ kinds $ trace $ tool $ quiet $ format $ html_out
      $ json_out $ config_path $ show_stats $ trace_out $ metrics_out $ budget
      $ contexts $ flow $ second_order $ cache_dir $ no_cache $ watch
      $ watch_poll_ms $ watch_max_events)

let () = exit (Cmd.eval' cmd)
