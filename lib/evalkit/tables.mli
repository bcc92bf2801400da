(** Formatting of every table and figure in the paper's evaluation section,
    with the paper-reported values printed alongside the measured ones. *)

val table1 :
  Format.formatter ->
  ev2012:Runner.evaluation ->
  ev2014:Runner.evaluation ->
  unit
(** Table I: TP/FP/Precision/Recall/F-score for XSS, SQLi and Global. *)

val figure2 : Format.formatter -> ev:Runner.evaluation -> unit
(** Fig. 2 data: the seven Venn regions plus the empty circle. *)

val table2 :
  Format.formatter ->
  ev2012:Runner.evaluation ->
  ev2014:Runner.evaluation ->
  unit
(** Table II: distinct vulnerabilities by malicious input vector. *)

val table3 :
  Format.formatter ->
  ev2012:Runner.evaluation ->
  ev2014:Runner.evaluation ->
  unit
(** Table III: detection time of all plugins in seconds. *)

val inertia :
  Format.formatter ->
  ev2012:Runner.evaluation ->
  ev2014:Runner.evaluation ->
  unit
(** §V.D: persistence of disclosed vulnerabilities. *)

val robustness : Format.formatter -> ev:Runner.evaluation -> unit
(** §V.E: corpus size, failed files, error counts. *)

val full_report :
  ?with_ablation:bool ->
  Format.formatter ->
  ev2012:Runner.evaluation ->
  ev2014:Runner.evaluation ->
  unit
(** Everything above in the paper's order, plus the E9 history table;
    [with_ablation] adds the E8 study (six extra phpSAFE runs per
    version). *)
