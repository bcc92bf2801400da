(** Pixy-like analyzer: flow-sensitive forward dataflow over a CFG of basic
    blocks (paper §II, after Jovanovic et al., S&P'06), with
    register_globals modelling, per-file analysis, called-functions-only
    inter-procedural inlining — and hard failure on any OOP construct.
    See the implementation header for the full behavioural model. *)

val analyze_project : Phplang.Project.t -> Secflow.Report.result
