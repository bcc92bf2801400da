(** Public API of the phpSAFE analyzer.

    Mirrors the paper's integration story (§III): "its functions become
    accessible through the instantiation of a single PHP class called
    PHP-SAFE, which receives as input the PHP file to be analyzed and
    delivers the results in the properties of the object". Here the entry
    points take a source string or a {!Phplang.Project.t} and return a
    {!Secflow.Report.result}. *)

module Config = Config
module Wordpress = Wordpress
module Taint = Taint
module Env = Env
module Summary = Summary
module Analyzer = Analyzer

type so_mode = Analyzer.so_mode = So_off | So_record | So_replay of string list

type options = Analyzer.options = {
  config : Config.t;
  budget : Analyzer.budget option;
  analyze_uncalled : bool;
  resolve_includes : bool;
  respect_guards : bool;
  infer_contexts : bool;
  flow_sensitive : bool;
  so_mode : so_mode;
  restrict_kinds : Secflow.Vuln.kind list option;
}

let default_options = Analyzer.default_options

(** Analyze a whole plugin project (stages 1–4 of §III). *)
let analyze_project ?opts project = Analyzer.analyze_project ?opts project

(** Two-phase second-order SQLi analysis (record DB writes, replay reads). *)
let analyze_project_so ?opts project = Analyzer.analyze_project_so ?opts project

(** Analyze a single PHP source string as a one-file project. *)
let analyze_source ?opts ~file source =
  let project =
    Phplang.Project.make ~name:file [ { Phplang.Project.path = file; source } ]
  in
  analyze_project ?opts project

(** The {!Secflow.Tool.t} facade used by the evaluation harness. *)
let tool : Secflow.Tool.t =
  {
    Secflow.Tool.name = "phpSAFE";
    analyze_project = (fun p -> analyze_project p);
  }

module Joomla = Joomla
module Drupal = Drupal
module Report_html = Report_html
module Config_spec = Config_spec
module Stats = Stats
