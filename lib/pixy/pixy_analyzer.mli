(** Pixy-like analyzer: flow-sensitive forward dataflow over a CFG of basic
    blocks (paper §II, after Jovanovic et al., S&P'06), with
    register_globals modelling, per-file analysis, called-functions-only
    inter-procedural inlining — and hard failure on any OOP construct.
    See the implementation header for the full behavioural model. *)

exception Oop of string
(** Raised internally when an OOP construct is encountered. *)

val max_inline_depth : int
(** The fixpoint pass cap moved to [Secflow.Budget.fixpoint_passes];
    exhausting it keeps the findings made so far (an under-approximation:
    the missing passes could only add taint) and reports the file as
    [Failed (Budget_exhausted _)] instead of iterating further. *)

val analyze_file :
  file:string ->
  string ->
  Secflow.Report.finding list * Secflow.Report.file_outcome * int
(** Analyze one file: findings, outcome (failed with an error message when
    the file uses OOP), error count. *)

val analyze_project : Phplang.Project.t -> Secflow.Report.result
