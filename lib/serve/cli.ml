(** The scan flags shared by every command line — see cli.mli. *)

open Cmdliner

let tool =
  let doc = "Analyzer to run: phpsafe (default), rips or pixy." in
  let tool =
    Arg.conv'
      ( (fun name ->
          Result.map
            (fun _ -> name)
            (Scan.tool_of { Scan.default with tool = name })),
        Format.pp_print_string )
  in
  Arg.(value & opt tool "phpsafe" & info [ "tool" ] ~docv:"TOOL" ~doc)

let kind =
  let doc =
    "Vulnerability kinds to report: $(b,xss), $(b,sqli), $(b,cmdi)
     (command injection), $(b,lfi) (path traversal / local file
     inclusion), $(b,ssrf), $(b,so-sqli) (second-order SQLi; see
     $(b,--second-order)) or $(b,all)."
  in
  let kind =
    Arg.conv'
      ( Scan.kind_of_string,
        fun ppf k -> Format.pp_print_string ppf (Scan.kind_to_string k) )
  in
  Arg.(value & opt kind None & info [ "k"; "kind"; "kinds" ] ~docv:"KIND" ~doc)

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

let scan_opts =
  let mk tool kind contexts flow second_order =
    { Scan.tool; kind; contexts; flow; second_order }
  in
  Term.(const mk $ tool $ kind $ contexts $ flow $ second_order)

(* Resource budgets (Secflow.Budget): every exhaustion degrades the file to
   a Failed (Budget_exhausted _) outcome instead of crashing or hanging. *)
let budget =
  let default = Secflow.Budget.default in
  let cap name absent doc =
    Arg.(value & opt int absent & info [ name ] ~docv:"N" ~doc)
  in
  let parse_depth =
    cap "budget-parse-depth" default.Secflow.Budget.parse_depth
      "Parser nesting-depth fuel: expressions/statements nested deeper than
       $(docv) levels fail the file with a budget-exhausted outcome."
  in
  let fixpoint_passes =
    cap "budget-fixpoint-passes" default.Secflow.Budget.fixpoint_passes
      "Cap on dataflow fixpoint passes per body, for Pixy and for phpSAFE's
       $(b,--flow) walk; hitting it keeps the findings made so far (partial,
       since more passes could only add taint) but reports the file as
       budget-exhausted."
  in
  let include_depth =
    cap "budget-include-depth" default.Secflow.Budget.include_depth
      "Include-closure chain-depth safety cap."
  in
  let include_files =
    cap "budget-include-files" default.Secflow.Budget.include_files
      "Include-closure size safety cap (files per closure)."
  in
  let mk parse_depth fixpoint_passes include_depth include_files =
    { Secflow.Budget.parse_depth; fixpoint_passes; include_depth;
      include_files }
  in
  Term.(
    const mk $ parse_depth $ fixpoint_passes $ include_depth $ include_files)

let cache_dir_arg =
  let doc =
    "Keep a persistent content-addressed cache under $(docv): parse
     artifacts of cold scans, plus per-file results for $(b,--tool rips)
     and $(b,--tool pixy) (phpSAFE always re-analyzes); reused across runs,
     shared between processes.  Defaults to $(b,PHPSAFE_CACHE_DIR) when
     set.  Findings are byte-identical with or without it."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let set_root ~no_cache dir =
  if no_cache then Phplang.Store.set_root None
  else Option.iter (fun d -> Phplang.Store.set_root (Some d)) dir

let cache =
  let no_cache =
    let doc = "Ignore $(b,PHPSAFE_CACHE_DIR) and run without the disk cache." in
    Arg.(value & flag & info [ "no-cache" ] ~doc)
  in
  let set dir no_cache =
    set_root ~no_cache dir;
    no_cache
  in
  Term.(const set $ cache_dir_arg $ no_cache)

let cache_dir = Term.(const (set_root ~no_cache:false) $ cache_dir_arg)

let obs ~summary =
  let trace =
    let doc =
      "Write a Chrome trace-event JSON of the analysis (per-stage spans, one
       track per domain) to $(docv); open it in https://ui.perfetto.dev."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let metrics =
    let doc =
      "Write machine-readable metrics JSON (stage wall times, parse-cache
       hit rate, summaries built, findings pre/post-dedup) to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)
  in
  let setup trace metrics =
    if trace <> None || metrics <> None then Obs.set_enabled true;
    fun () -> Obs.export ~summary ?trace ?metrics ()
  in
  Term.(const setup $ trace $ metrics)

let positive what =
  Arg.conv'
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n >= 1 -> Ok n
        | _ -> Error (Printf.sprintf "expected a positive %s, got: %s" what s)),
      Format.pp_print_int )

let target =
  let doc = "PHP file or plugin directory to analyze." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"TARGET" ~doc)

let exits =
  [ Cmd.Exit.info 0 ~doc:"on a clean scan (no findings, every file analyzed).";
    Cmd.Exit.info 1 ~doc:"when findings remain after the $(b,--kind) filter.";
    Cmd.Exit.info 2 ~doc:"when any file's analysis outcome is a failure." ]
