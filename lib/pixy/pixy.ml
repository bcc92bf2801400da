(** Public facade for the Pixy-like baseline analyzer. *)

module Config = Pixy_config
module Taint = Pixy_taint
module Analyzer = Pixy_analyzer

let analyze_project = Pixy_analyzer.analyze_project

let analyze_source ~file source =
  analyze_project
    (Phplang.Project.make ~name:file [ { Phplang.Project.path = file; source } ])

let tool : Secflow.Tool.t =
  { Secflow.Tool.name = "Pixy"; analyze_project }
