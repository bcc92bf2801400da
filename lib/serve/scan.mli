(** One scan request's analysis options and the shared execution engine.

    Both [phpsafe_cli] (for targets read from disk) and the
    [phpsafe_serve] daemon (for projects received over the wire) turn a
    [(tool, kind, contexts, flow)] quadruple into an analysis through this
    module, and both render the result with {!Secflow.Report.to_json} —
    which is why their outputs are byte-identical for the same inputs and
    flags. *)

type opts = {
  tool : string;  (** "phpsafe" (default), "rips" or "pixy"; case-insensitive *)
  kind : Secflow.Vuln.kind option;  (** report filter; [None] = all kinds *)
  contexts : bool;  (** phpSAFE sink-context-sensitive sanitization pass *)
  flow : bool;  (** phpSAFE flow-sensitive body walks *)
  second_order : bool;
      (** phpSAFE two-phase second-order SQLi analysis (record DB writes,
          replay matching reads); only affects phpSAFE *)
}

val default : opts

val kind_of_string : string -> (Secflow.Vuln.kind option, string) result
(** ["all"] or a vulnerability-kind spec name (["xss"], ["sqli"], ["cmdi"],
    ["lfi"], ["ssrf"], ["so-sqli"] and their aliases — see
    {!Secflow.Vuln.kind_of_spec_name}); anything else is an [Error] naming
    the bad value. *)

val kind_to_string : Secflow.Vuln.kind option -> string

val tool_of :
  ?config:Phpsafe.Config.t Lazy.t -> opts -> (Secflow.Tool.t, string) result
(** The analyzer the options select, with [contexts]/[flow] applied (they
    only affect phpSAFE).  [config] replaces phpSAFE's built-in profile
    ([phpsafe_cli --config]); it is forced only when the tool is phpSAFE,
    so the other tools never load it.  [Error] names an unknown tool. *)

val run :
  ?config:Phpsafe.Config.t Lazy.t ->
  opts ->
  Phplang.Project.t ->
  string * Secflow.Report.result
(** Analyze the project and filter findings by [kind] (per-file outcomes
    are never filtered).  Returns the tool's display name and the result.
    Raises [Failure] on an unknown tool — callers are expected to have
    validated [opts] with {!tool_of} first. *)

val exit_code : Secflow.Report.result -> int
(** The scan exit-code contract shared by [phpsafe_cli], [phpsafe_serve
    scan] and bounded [--watch] runs: 2 when some file's outcome is a
    failure, else 1 when findings remain (after the [kind] filter), else
    0. *)

val exit_code_of_report : string -> int
(** {!exit_code} read back from a rendered [phpsafe-report/1] document —
    what the [phpsafe_serve scan] client has in hand; 0 for a document
    that does not parse. *)

val run_json : opts -> Phplang.Project.t -> string
(** [Secflow.Report.to_json] of {!run} — the byte-identity currency. *)

val set_before_analyze_hook : (Phplang.Project.t -> unit) option -> unit
(** Install (or clear) a process-global hook called at the top of {!run},
    inside the caller's deadline and tenant scopes.  The chaos harness and
    tests use it to simulate slow scans: a hook that loops
    [Thread.delay]/[Secflow.Deadline.check] burns wall-clock time while
    still honouring cooperative cancellation.  Not for production use. *)
