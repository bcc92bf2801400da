(** Edit-delta scanning: the engine behind [phpsafe_cli --watch] and the
    daemon's warm re-scan path.

    A {!session} owns a {!Phplang.Project.Increment} parse session plus
    the previous scan's findings.  Each {!scan} first brings the parse
    session in line with the project — every changed file is re-lexed from
    its edit's damage region and region-re-parsed, with the result seeded
    into the process parse memo — then runs the ordinary {!Scan.run}
    (which hits that memo) and diffs the findings against the previous
    scan.  Reports stay byte-identical to a cold scan of the same bytes:
    incrementality only changes how fast the parse artifacts appear, never
    what they contain. *)

(** What one re-scan observed, relative to the session's previous scan. *)
type delta = {
  d_initial : bool;  (** first scan of this session: everything is new *)
  d_changed : string list;  (** new or edited paths, sorted *)
  d_deleted : string list;  (** paths gone from the project, sorted *)
  d_added : Secflow.Report.finding list;
      (** findings not present before, in report order *)
  d_removed : Secflow.Report.finding list;
      (** previous findings no longer present, in previous-report order *)
  d_total : int;  (** findings after this scan (post [kind] filter) *)
  d_exit : int;  (** {!Scan.exit_code} of this scan *)
  d_ms : float;  (** analysis wall time, excluding source refresh *)
  d_report : string;
      (** the full {!Scan.run_json} document for this scan — what the
          daemon splices into a scan reply *)
}

type session

val create : Scan.opts -> session

val incremental_counters : unit -> (string * int) list
(** The sub-file incremental pipeline's counters ([lexer.ckpt.*],
    [parser.region.*]), sorted by name — the [incremental] view of the
    daemon's [metrics] reply and of the CLI's [--watch] lines.  Safe from
    any thread. *)

val refresh_sources :
  session -> Phplang.Project.t -> string list * string list
(** Update the incremental parse session to [project] without analyzing:
    [(changed, deleted)] paths, each sorted.  Changed files are re-parsed
    incrementally and seeded into the shared parse memo.  Thread-safe
    (the daemon calls this from worker domains); the analysis itself can
    then run outside the session lock. *)

val scan : session -> Phplang.Project.t -> delta
(** {!refresh_sources} + {!Scan.run} + finding diff, atomically with
    respect to other calls on the session. *)

val scan_if_changed : session -> Phplang.Project.t -> delta option
(** [None] when the session has scanned before and no file changed —
    the poll loop's cheap idle path. *)

val loop :
  session ->
  load:(unit -> Phplang.Project.t) ->
  poll_ms:int ->
  ?max_events:int ->
  on_event:(delta -> unit) ->
  unit ->
  unit
(** Poll-driven watch: scan once immediately, then reload every [poll_ms]
    milliseconds and deliver a {!delta} to [on_event] whenever anything
    changed.  [max_events] bounds how many deltas are delivered (the
    initial scan counts) — the CI smoke test's exit condition; omit it to
    run until the process is killed. *)
