(** phpSAFE analysis stage (paper §III.C): inter-procedural, summary-based,
    OOP-aware taint tracking from sources to sinks over whole plugin
    projects. *)

type budget = {
  max_include_depth : int;
  max_closure_loc : int;
}

type so_mode =
  | So_off  (** single-phase run: no persistent-storage modeling *)
  | So_record
      (** phase 1 of {!analyze_project_so}: record the DB-write keys
          reached by SQL-tainted data *)
  | So_replay of string list
      (** phase 2: DB reads matching a recorded write key return
          [Second_order_sqli]-tainted data *)

type options = {
  config : Config.t;
  budget : budget option;
  analyze_uncalled : bool;
      (** analyze functions never called from plugin code (§III.C) *)
  resolve_includes : bool;
      (** inline included files; disabling also disables the budget *)
  respect_guards : bool;
      (** future-work extension: [if (!is_numeric($x)) exit;] validates
          [$x]; off by default — the published tool is path-insensitive *)
  infer_contexts : bool;
      (** future-work extension ([--contexts]): infer the output context of
          each sink occurrence and accept only sanitizers adequate for it;
          off by default — the published tool is context-insensitive *)
  flow_sensitive : bool;
      (** [--flow] extension: body walks run over the shared {!Dataflow.Cfg}
          with a fixpoint, killing branch-local sanitization at joins and
          re-generating taint around loop back-edges; off by default — the
          published tool is flow-insensitive over conditionals and loops *)
  so_mode : so_mode;
      (** second-order SQLi phase; callers normally leave this [So_off] and
          use {!analyze_project_so} instead of setting it directly *)
}

val default_options : options
(** WordPress profile, paper budget, uncalled analysis and include
    resolution on, guard and context extensions off. *)

val set_dag_tracking : bool -> unit
(** Does nothing; a no-op kept for [perfbench/]. *)

val analyze_project :
  ?opts:options -> Phplang.Project.t -> Secflow.Report.result
(** Run all four stages (§III) over a plugin project: parse every file,
    check the include budget, build the function/class registry, execute
    each file as an entry point, then analyze uncalled functions.  Findings
    are de-duplicated per (kind, file, line). *)

val analyze_project_so :
  ?opts:options -> Phplang.Project.t -> Secflow.Report.result
(** Two-phase second-order SQL-injection analysis: an {!analyze_project}
    run in [So_record] mode collects the DB-write keys reached by
    SQL-tainted data; when any exist, a second run in [So_replay] mode
    treats matching DB reads as tainted sources.  With no tainted writes
    this degenerates to (exactly) the single-phase result. *)
