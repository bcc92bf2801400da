(** phpSAFE command-line interface.

    Scans a PHP file or a directory tree (a plugin) for XSS and SQLi
    vulnerabilities and prints a text report with the data-flow trace of
    each finding — the CLI counterpart of the web interface described in
    paper §III. *)

(* --watch: poll the target, re-analyze on every change and print the
   finding delta.  Reports stay byte-identical to a cold scan of the same
   bytes; only the changed files are re-parsed, every other parse comes
   from the memo (see Serve.Watch).  Bounded runs (--watch-max-events)
   exist for smoke tests; interactive use runs until interrupted. *)
let watch_loop target opts ~poll_ms ~max_events =
  let session = Serve.Watch.create opts in
  let last_exit = ref 0 in
  let on_event (d : Serve.Watch.delta) =
    let open Serve.Watch in
    last_exit := d.d_exit;
    if d.d_initial then
      Format.printf "watch: initial scan: %d finding(s) (%.1f ms)@." d.d_total
        d.d_ms
    else begin
      Format.printf
        "watch: %d changed, %d deleted: +%d/-%d finding(s), %d total (%.1f \
         ms)@."
        (List.length d.d_changed) (List.length d.d_deleted)
        (List.length d.d_added) (List.length d.d_removed) d.d_total d.d_ms;
      List.iter
        (fun f -> Format.printf "  + %a@." Secflow.Report.pp_finding f)
        d.d_added;
      List.iter
        (fun f -> Format.printf "  - %a@." Secflow.Report.pp_finding f)
        d.d_removed
    end
  in
  Format.printf "watch: %s: polling every %d ms@." target poll_ms;
  Serve.Watch.loop session
    ~load:(fun () -> Phplang.Project.load target)
    ~poll_ms ?max_events ~on_event ();
  (* bounded runs gate like a plain scan of the last delivered event *)
  !last_exit

(* --config: a custom profile merged over generic PHP so the language
   builtins stay known (paper §III.A extensibility); a custom entry cannot
   override a builtin one of the same name.  Loaded only when phpSAFE
   runs. *)
let load_config path =
  lazy
    (let custom, parse_warnings = Phpsafe.Config_spec.load_with_warnings path in
     List.iter
       (fun w -> Format.eprintf "phpsafe: config warning: %s@." w)
       (parse_warnings
       @ Phpsafe.Config_spec.validate ~base:Phpsafe.Config.generic_php custom);
     Phpsafe.Config.extend Phpsafe.Config.generic_php custom)

let failure_text = function
  | Secflow.Report.Out_of_memory -> "include closure exceeds memory budget"
  | Secflow.Report.Unsupported_syntax what -> "unsupported: " ^ what
  | Secflow.Report.Parse_failure msg -> "parse failure: " ^ msg
  | Secflow.Report.Crashed msg -> "analysis crashed: " ^ msg
  | Secflow.Report.Budget_exhausted msg -> "resource budget exhausted: " ^ msg

let run target opts show_trace quiet format html_out json_out config_path
    show_stats export budget () watch watch_poll_ms watch_max_events =
  Secflow.Budget.set budget;
  if watch then
    exit (watch_loop target opts ~poll_ms:watch_poll_ms
            ~max_events:watch_max_events);
  let project = Phplang.Project.load target in
  if show_stats then
    Format.printf "project stats: %a@." Phpsafe.Stats.pp
      (Phpsafe.Stats.of_project project);
  (* the engine the serving daemon uses, so a scan here and a scan there
     produce byte-identical reports *)
  let tool, result =
    Serve.Scan.run ?config:(Option.map load_config config_path) opts project
  in
  (match format with
  | `Json ->
      print_string (Secflow.Report.to_json ~tool result);
      print_newline ()
  | `Text ->
      if not quiet then begin
        Format.printf "%s: analyzed %d files of %s@." tool
          (List.length result.Secflow.Report.outcomes)
          project.Phplang.Project.name;
        List.iter
          (fun (path, outcome) ->
            match outcome with
            | Secflow.Report.Analyzed -> ()
            | Secflow.Report.Failed reason ->
                Format.printf "  ! could not analyze %s (%s)@." path
                  (failure_text reason))
          result.Secflow.Report.outcomes
      end;
      List.iter
        (fun f ->
          Format.printf "%a@." Secflow.Report.pp_finding f;
          if show_trace then Format.printf "%a" Secflow.Report.pp_trace f)
        result.Secflow.Report.findings;
      Format.printf "%d finding(s)@."
        (List.length result.Secflow.Report.findings));
  (match json_out with
  | Some path ->
      Obs.write_file path (Secflow.Report.to_json ~tool result);
      Format.printf "JSON report written to %s@." path
  | None -> ());
  (match html_out with
  | Some path ->
      let html =
        Phpsafe.Report_html.render
          ~title:(Printf.sprintf "%s — %s" tool target)
          result
      in
      Obs.write_file path html;
      Format.printf "HTML report written to %s@." path
  | None -> ());
  export ();
  if Phplang.Store.enabled () then
    Format.eprintf "%a" Phplang.Store.pp_counters ();
  Serve.Scan.exit_code result

open Cmdliner

let trace =
  let doc = "Print the tainted data-flow trace of each finding." in
  Arg.(value & flag & info [ "t"; "flow-trace" ] ~doc)

let quiet =
  let doc = "Only print findings." in
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc)

let format =
  let doc =
    "Report format on stdout: $(b,text) (default) or $(b,json) — the
     machine-readable phpsafe-report/1 document, byte-identical to the
     report in a $(b,phpsafe_serve) scan reply for the same inputs."
  in
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "format" ] ~docv:"FORMAT" ~doc)

let html_out =
  let doc = "Also write an HTML review page (the paper's web output) to $(docv)." in
  Arg.(value & opt (some string) None & info [ "html" ] ~docv:"FILE" ~doc)

let json_out =
  let doc = "Also write a machine-readable JSON report to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let show_stats =
  let doc = "Print project statistics (files, tokens, functions, sinks, ...)." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let watch_flag =
  let doc =
    "Keep running: poll $(b,TARGET) for changes and re-analyze on every
     edit, re-parsing only the changed files, and print the finding delta
     of each change.  Reports stay byte-identical to a fresh scan of the
     same bytes."
  in
  Arg.(value & flag & info [ "w"; "watch" ] ~doc)

let watch_poll_ms =
  let doc = "Polling interval for $(b,--watch), in milliseconds." in
  Arg.(value & opt int 500 & info [ "watch-poll-ms" ] ~docv:"MS" ~doc)

let watch_max_events =
  let doc =
    "Exit after $(docv) watch events (the initial scan counts as one, so
     $(docv) is at least 1), with the status a plain scan of the last
     delivered event would have (2 when a file failed, 1 when findings
     remain, 0 when clean); for scripted/smoke use.  Unbounded when
     omitted."
  in
  Arg.(
    value
    & opt (some (Serve.Cli.positive "event count")) None
    & info [ "watch-max-events" ] ~docv:"N" ~doc)

let config_path =
  let doc =
    "Extend the phpSAFE configuration with a spec file (see
     Phpsafe.Config_spec); only meaningful with --tool phpsafe."
  in
  Arg.(value & opt (some non_dir_file) None & info [ "config" ] ~docv:"FILE" ~doc)

(* --watch builds its scans from the built-in profiles (Serve.Scan), so
   --config with it is a usage error, refused before anything loads. *)
let watch =
  let builtin_only watch config =
    if watch && config <> None then
      `Error (true, "--watch does not support --config (use the built-in profiles)")
    else `Ok watch
  in
  Term.(ret (const builtin_only $ watch_flag $ config_path))

let cmd =
  let doc =
    "static vulnerability analysis (XSS, SQLi, command injection, path
     traversal/LFI, SSRF, second-order SQLi) for PHP plugins (phpSAFE
     reproduction)"
  in
  let exits = Serve.Cli.exits @ Cmd.Exit.defaults in
  let info = Cmd.info "phpsafe" ~version:"1.0.0" ~doc ~exits in
  Cmd.v info
    Term.(
      const run $ Serve.Cli.target $ Serve.Cli.scan_opts $ trace $ quiet
      $ format $ html_out $ json_out $ config_path $ show_stats
      $ Serve.Cli.obs ~summary:false $ Serve.Cli.budget $ Serve.Cli.cache
      $ watch $ watch_poll_ms $ watch_max_events)

let () = exit (Cmd.eval' cmd)
