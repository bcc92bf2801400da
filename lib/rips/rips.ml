(** Public facade for the RIPS-like baseline analyzer. *)

let analyze_project = Rips_analyzer.analyze_project

let analyze_source ~file source =
  analyze_project
    (Phplang.Project.make ~name:file [ { Phplang.Project.path = file; source } ])

let tool : Secflow.Tool.t =
  { Secflow.Tool.name = "RIPS"; analyze_project }
