(** Analyzer output: findings with data-flow traces, plus per-file analysis
    outcomes.  This is the "single repository" format the paper normalizes
    every tool's output into (§IV.B step 5). *)

(** One hop of a tainted data flow, for the §III.D review aids ("the flow of
    the vulnerable data from variable to variable"). *)
type step = {
  step_var : string;      (** variable/property name, e.g. ["$row->sml_name"] *)
  step_pos : Phplang.Ast.pos;
  step_note : string;     (** what happened: "assigned from $_GET", ... *)
}

type finding = {
  kind : Vuln.kind;
  sink_pos : Phplang.Ast.pos;     (** file/line of the sensitive sink *)
  sink : string;                  (** sink function, e.g. ["echo"] *)
  variable : string;              (** the vulnerable variable at the sink *)
  source : Vuln.source;           (** where the taint entered *)
  source_pos : Phplang.Ast.pos;
  trace : step list;              (** source-to-sink flow, in order *)
  context : Context.t option;
      (** inferred output context at the sink, when the analyzer ran its
          context-inference pass (phpSAFE [--contexts]) *)
  sanitizers_applied : string list;
      (** sanitizer functions the value passed through on its way to the
          sink (sorted); only populated by the context-inference pass *)
  trace_truncated : bool;
      (** [trace] hit the analyzer's step cap and older steps were
          dropped — the flow shown is incomplete *)
}

(** Identity used for de-duplication and ground-truth matching: a
    vulnerability is a (kind, file, line) sink occurrence. *)
type key = { k_kind : Vuln.kind; k_file : string; k_line : int }

let key_of_finding f =
  { k_kind = f.kind;
    k_file = f.sink_pos.Phplang.Ast.file;
    k_line = f.sink_pos.Phplang.Ast.line }

let compare_key a b =
  match String.compare a.k_file b.k_file with
  | 0 -> (
      match Int.compare a.k_line b.k_line with
      | 0 -> Vuln.compare_kind a.k_kind b.k_kind
      | c -> c)
  | c -> c

module Key_set = Set.Make (struct
  type t = key

  let compare = compare_key
end)

module Key_map = Map.Make (struct
  type t = key

  let compare = compare_key
end)

(** Finer identity used for in-analyzer de-duplication: positions only
    carry file/line, so two distinct sinks on one line ([echo $a; echo $b;])
    share a {!key}; keeping the sink name and vulnerable variable apart
    stops them collapsing into a single finding.  Ground-truth matching
    still uses the coarse (kind, file, line) {!key}. *)
type occurrence = { o_key : key; o_sink : string; o_var : string }

let compare_occurrence a b =
  match compare_key a.o_key b.o_key with
  | 0 -> (
      match String.compare a.o_sink b.o_sink with
      | 0 -> String.compare a.o_var b.o_var
      | c -> c)
  | c -> c

module Occurrence_set = Set.Make (struct
  type t = occurrence

  let compare = compare_occurrence
end)

(** Why a file could not be analyzed (the §V.E robustness dimension). *)
type failure_reason =
  | Out_of_memory        (** phpSAFE: include closure exceeded its budget *)
  | Unsupported_syntax of string  (** Pixy: OOP constructs *)
  | Parse_failure of string
  | Crashed of string
      (** an exception escaped the analyzer and was contained by its crash
          barrier — the analysis aborted but the run survives *)
  | Budget_exhausted of string
      (** a resource budget (parser nesting fuel, fixpoint pass cap,
          include-closure cap — see {!Budget}) ran out; the findings kept
          are partial *)

(** Stable label for a failure reason, used for per-reason [Obs] counters
    and report breakdowns. *)
let failure_label = function
  | Out_of_memory -> "out_of_memory"
  | Unsupported_syntax _ -> "unsupported_syntax"
  | Parse_failure _ -> "parse_failure"
  | Crashed _ -> "crashed"
  | Budget_exhausted _ -> "budget_exhausted"

type file_outcome =
  | Analyzed
  | Failed of failure_reason

(** [fail reason] is [Failed reason], bumping the per-reason
    [secflow.failed.<label>] counter — the one constructor every analyzer
    barrier goes through, so the robustness metrics see each failure
    exactly once. *)
let fail reason =
  Obs.incr ("secflow.failed." ^ failure_label reason);
  Failed reason

type result = {
  findings : finding list;
  outcomes : (string * file_outcome) list;  (** per file path *)
  errors : int;  (** diagnostics emitted while analyzing (Pixy's "error messages") *)
  unresolved_includes : int;
      (** distinct include targets that resolved to no project file —
          WordPress core references, typically (§V.E context) *)
}

let empty_result =
  { findings = []; outcomes = []; errors = 0; unresolved_includes = 0 }

(** The result an analyzer's crash barrier reports when the whole project
    analysis died: every file [Failed (Crashed msg)], one error. *)
let crashed_result ~files msg =
  {
    findings = [];
    outcomes = List.map (fun path -> (path, fail (Crashed msg))) files;
    errors = 1;
    unresolved_includes = 0;
  }

(** De-duplicated finding keys of a result. *)
let keys result =
  List.fold_left
    (fun acc f -> Key_set.add (key_of_finding f) acc)
    Key_set.empty result.findings

let failed_files result =
  List.filter_map
    (fun (path, o) -> match o with Failed _ -> Some path | Analyzed -> None)
    result.outcomes

let pp_finding ppf f =
  Format.fprintf ppf "%a at %a: %s(%s) <- %s"
    Vuln.pp_kind f.kind Phplang.Ast.pp_pos f.sink_pos f.sink f.variable
    (Vuln.source_to_string f.source)

let pp_trace ppf f =
  List.iter
    (fun s ->
      Format.fprintf ppf "  %s @ %a: %s@." s.step_var Phplang.Ast.pp_pos
        s.step_pos s.step_note)
    f.trace

(* ------------------------------------------------------------------ *)
(* Machine-readable encoding (schema phpsafe-report/1)                 *)
(* ------------------------------------------------------------------ *)

(* This is the one findings encoder every machine surface shares:
   [phpsafe_cli --format json] / [--json FILE], the phpsafe_serve daemon's
   scan replies and the HTML report's JSON sibling all emit exactly these
   bytes for the same result, so byte-identity between the CLI and the
   daemon reduces to both calling [to_json].  The layout loosely follows
   SARIF's run/result/location nesting while staying dependency-free. *)

let json_of_pos (p : Phplang.Ast.pos) =
  Json.Obj
    [ ("file", Json.String p.Phplang.Ast.file);
      ("line", Json.Int p.Phplang.Ast.line) ]

let json_of_step (s : step) =
  Json.Obj
    [ ("variable", Json.String s.step_var);
      ("location", json_of_pos s.step_pos);
      ("note", Json.String s.step_note) ]

let json_of_finding (f : finding) =
  let context_fields =
    match f.context with
    | Some c -> [ ("context", Json.String (Context.to_string c)) ]
    | None -> []
  in
  Json.Obj
    ([ ("kind", Json.String (Vuln.kind_to_string f.kind));
       ("sink", Json.String f.sink);
       ("variable", Json.String f.variable);
       ("location", json_of_pos f.sink_pos);
       ("source", Json.String (Vuln.source_to_string f.source));
       ("sourceLocation", json_of_pos f.source_pos);
       ("vector",
        Json.String (Vuln.vector_to_string (Vuln.vector_of_source f.source))) ]
    @ context_fields
    @ [ ("sanitizersApplied",
         Json.List (List.map (fun s -> Json.String s) f.sanitizers_applied));
        ("dataFlow", Json.List (List.map json_of_step f.trace));
        ("dataFlowTruncated", Json.Bool f.trace_truncated) ])

let json_of_outcome (path, outcome) =
  let status, detail =
    match outcome with
    | Analyzed -> ("analyzed", "")
    | Failed Out_of_memory -> ("failed", "include closure exceeds memory budget")
    | Failed (Unsupported_syntax what) -> ("failed", what)
    | Failed (Parse_failure msg) -> ("failed", msg)
    | Failed (Crashed msg) -> ("crashed", msg)
    | Failed (Budget_exhausted msg) -> ("budget-exhausted", msg)
  in
  Json.Obj
    [ ("file", Json.String path); ("status", Json.String status);
      ("detail", Json.String detail) ]

(** Finding count per kind, in {!Vuln.all_kinds} order — the generic
    grouping every table/report surface uses (a binary XSS/else partition
    here would silently fold new classes into the SQLi bucket). *)
let count_by_kind (findings : finding list) =
  List.map
    (fun k ->
      ( k,
        List.length
          (List.filter (fun (f : finding) -> Vuln.equal_kind f.kind k) findings)
      ))
    Vuln.all_kinds

let to_json_value ?(tool = "phpSAFE") (result : result) : Json.t =
  let kind_counts =
    List.map
      (fun (k, n) -> (Vuln.kind_spec_name k, Json.Int n))
      (count_by_kind result.findings)
  in
  Json.Obj
    [ ("tool", Json.String tool);
      ("schema", Json.String "phpsafe-report/1");
      ("summary",
       Json.Obj
         ([ ("files", Json.Int (List.length result.outcomes));
            ("failedFiles", Json.Int (List.length (failed_files result))) ]
         @ kind_counts
         @ [ ("errors", Json.Int result.errors) ]));
      ("findings", Json.List (List.map json_of_finding result.findings));
      ("files", Json.List (List.map json_of_outcome result.outcomes)) ]

let to_json ?tool result = Json.to_string (to_json_value ?tool result)
