(** RIPS-like analyzer: backward-directed taint analysis from each sensitive
    sink (paper §II), per file, procedural code only, no CMS knowledge,
    never fails a file.  See the implementation header for the full
    behavioural model. *)

val analyze_project : Phplang.Project.t -> Secflow.Report.result
(** File-by-file analysis of a plugin, findings de-duplicated per
    (kind, file, line). *)
