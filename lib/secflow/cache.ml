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

(** Per-file analysis loop with replay, shared by RIPS and Pixy (the two
    analyzers with no cross-file state beyond finding de-duplication):
    runs [analyze] per project file unless a cached entry replays it.
    Entries hold the file's {e pre-dedup} findings; the loop re-applies
    the analyzer's deterministic cross-file dedup ([`By_key] for RIPS,
    [`None] for Pixy, which de-duplicates per file inside [analyze]), so
    warm results are byte-identical to cold ones.  [fingerprint] must
    cover everything but the file itself: analyzer name, configuration
    and the {!Budget} slice the analyzer consults. *)
let file_loop ~tool ~fingerprint ~(dedup : [ `None | `By_key of string ])
    ~analyze (project : Phplang.Project.t) : Report.result =
  let findings = ref [] in
  let outcomes = ref [] in
  let errors = ref 0 in
  let seen = ref Report.Key_set.empty in
  (* counter names built once per call, not per file or finding *)
  let replayed = "cache.result.replayed." ^ tool in
  let dedup =
    match dedup with
    | `None -> None
    | `By_key prefix -> Some (prefix ^ ".pre_dedup", prefix ^ ".post_dedup")
  in
  List.iter
    (fun (f : Phplang.Project.file) ->
      (* file boundary: a per-request deadline cancels between files, with
         or without the result cache enabled *)
      Deadline.check ();
      let path = f.Phplang.Project.path in
      let fs, outcome, errs =
        if not (enabled ()) then analyze f
        else
          let key =
            file_key ~tool ~fingerprint ~path ~source:f.Phplang.Project.source
          in
          match find_file ~key with
          | Some e ->
              Obs.incr replayed;
              (e.fe_findings, e.fe_outcome, e.fe_errors)
          | None ->
              let fs, outcome, errs = analyze f in
              store_file ~key
                { fe_findings = fs; fe_outcome = outcome; fe_errors = errs };
              (fs, outcome, errs)
      in
      errors := !errors + errs;
      outcomes := (path, outcome) :: !outcomes;
      match dedup with
      | None -> findings := List.rev_append fs !findings
      | Some (pre, post) ->
          List.iter
            (fun finding ->
              Obs.incr pre;
              let key = Report.key_of_finding finding in
              if not (Report.Key_set.mem key !seen) then begin
                Obs.incr post;
                seen := Report.Key_set.add key !seen;
                findings := finding :: !findings
              end)
            fs)
    project.Phplang.Project.files;
  {
    Report.findings = List.rev !findings;
    outcomes = List.rev !outcomes;
    errors = !errors;
    unresolved_includes = 0;
  }
