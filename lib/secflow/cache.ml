(** Per-file analysis-result cache of RIPS and Pixy, through the
    {!Phplang.Store} disk tier (namespace ["result"]).  Their per-file keys
    are exact because their analysis of a file reads only that file.
    phpSAFE's walk reads across files (calls, globals, includes), so it
    caches only parses and always analyzes live.

    The contract: an entry's key must cover {e everything} the cached value
    depends on —

    - the analyzer's name and configuration fingerprint;
    - the slice of the process-global {!Budget} the analyzer actually
      consults (so [--budget-fixpoint-passes] invalidates Pixy entries but
      not RIPS's);
    - the file's path (positions embed it) and source digest.

    Values are replayed verbatim into the analyzer's normal result
    assembly, so a warm run's [Report.result] is byte-identical to the cold
    run that populated the cache. *)

let ns = "result"

let enabled () = Phplang.Store.enabled ()

(** What the simple per-file analyzers (RIPS, Pixy — no cross-file state
    beyond global finding de-duplication) persist per file. *)
type file_entry = {
  fe_findings : Report.finding list;
  fe_outcome : Report.file_outcome;
  fe_errors : int;
}

let file_key ~tool ~fingerprint ~path ~source =
  Phplang.Digest.combine
    [ "file"; tool; fingerprint; path; Phplang.Digest.hex source ]

let find_file ~key : file_entry option = Phplang.Store.get ~ns ~key
let store_file ~key (e : file_entry) = Phplang.Store.put ~ns ~key e

(** The per-file driver of RIPS and Pixy (the two analyzers with no
    cross-file state beyond finding de-duplication): parses each project
    file and runs [analyze] on its program, unless a cached entry replays
    the file.  It owns what the two share around [analyze] —

    - a syntax error fails the file with [Parse_failure], exhausted parser
      fuel with [Budget_exhausted];
    - the crash barrier: any exception but {!Deadline.Exceeded} fails this
      file only, with [Crashed], and counts [<tool>.files.crashed];
    - a failed file counts one error;
    - cross-file de-duplication by {!Report.key_of_finding}, counted by
      [<tool>.findings.pre_dedup] and [.post_dedup] ([<tool>] lowercased).

    Entries hold the file's {e pre-dedup} findings and the loop re-applies
    the deterministic dedup, so warm results are byte-identical to cold
    ones.  [fingerprint] must cover everything but the file itself:
    analyzer name, configuration and the {!Budget} slice the analyzer
    consults. *)
let file_loop ~tool ~fingerprint
    ~(analyze :
       Phplang.Ast.program -> Report.finding list * Report.file_outcome)
    (project : Phplang.Project.t) : Report.result =
  let findings = ref [] in
  let outcomes = ref [] in
  let errors = ref 0 in
  let seen = ref Report.Key_set.empty in
  (* counter names built once per call, not per file or finding *)
  let replayed = "cache.result.replayed." ^ tool in
  let prefix = String.lowercase_ascii tool in
  let crashed = prefix ^ ".files.crashed" in
  let pre = prefix ^ ".findings.pre_dedup" in
  let post = prefix ^ ".findings.post_dedup" in
  let parse_and_analyze f =
    match Phplang.Project.parse_file f with
    | Error (Phplang.Project.Syntax msg) ->
        ([], Report.fail (Report.Parse_failure msg))
    | Error (Phplang.Project.Over_budget msg) ->
        ([], Report.fail (Report.Budget_exhausted msg))
    | Ok prog -> analyze prog
  in
  let run f =
    let fs, outcome =
      match parse_and_analyze f with
      | result -> result
      | exception (Deadline.Exceeded as e) ->
          (* cooperative cancellation is not a crash: let it reach the
             scheduler so the whole request becomes [Cancelled] *)
          raise e
      | exception exn ->
          Obs.incr crashed;
          ([], Report.fail (Report.Crashed (Printexc.to_string exn)))
    in
    let errors = match outcome with Report.Analyzed -> 0 | Failed _ -> 1 in
    { fe_findings = fs; fe_outcome = outcome; fe_errors = errors }
  in
  List.iter
    (fun (f : Phplang.Project.file) ->
      (* file boundary: a per-request deadline cancels between files, with
         or without the result cache enabled *)
      Deadline.check ();
      let path = f.Phplang.Project.path in
      let e =
        if not (enabled ()) then run f
        else
          let key =
            file_key ~tool ~fingerprint ~path ~source:f.Phplang.Project.source
          in
          match find_file ~key with
          | Some e ->
              Obs.incr replayed;
              e
          | None ->
              let e = run f in
              store_file ~key e;
              e
      in
      errors := !errors + e.fe_errors;
      outcomes := (path, e.fe_outcome) :: !outcomes;
      List.iter
        (fun finding ->
          Obs.incr pre;
          let key = Report.key_of_finding finding in
          if not (Report.Key_set.mem key !seen) then begin
            Obs.incr post;
            seen := Report.Key_set.add key !seen;
            findings := finding :: !findings
          end)
        e.fe_findings)
    project.Phplang.Project.files;
  {
    Report.findings = List.rev !findings;
    outcomes = List.rev !outcomes;
    errors = !errors;
    unresolved_includes = 0;
  }
