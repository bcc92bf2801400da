(** Variant-delta harness shared by experiments E8, E11, E13 and E16: run
    named analyzer variants over one labelled suite, classify each run
    against the suite's ground truth, and report per-variant metrics plus
    the seeds each variant gains or loses relative to the first (baseline)
    variant.

    Every run is sequential ({!Runner.run_tool}) and classified against
    exact generator labels, so the results — and the tables printed from
    them — are byte-identical at any [--jobs] setting and whether the
    persistent cache is cold, warm or absent.  Only the table layouts
    differ between experiments, so each keeps its own printer. *)

open Secflow

type run = {
  dr_name : string;  (** the variant's tool name *)
  dr_output : Matching.tool_output;
  dr_classified : Matching.classified;
  dr_metrics : Metrics.t;  (** every kind; FN counts missed union seeds *)
  dr_by_kind : (Vuln.kind * Metrics.t) list;  (** one per requested kind *)
  dr_new_tp : Corpus.Gt.seed list;
      (** TP here, missed by the baseline; sorted by seed id *)
  dr_removed_fp : Corpus.Gt.seed list;
      (** trap FP in the baseline, clean here; sorted by seed id *)
}

type t = {
  d_reals : int;  (** real seeds in the suite *)
  d_foils : int;  (** FP-trap seeds in the suite *)
  d_runs : run list;  (** in variant order; the first is the baseline *)
}

val phpsafe : string -> Phpsafe.options -> Tool.t
(** A named single-pass phpSAFE variant. *)

val run :
  ?union:Corpus.Gt.seed list -> ?kinds:Vuln.kind list -> Corpus.t ->
  Tool.t list -> t
(** Run every variant over the suite.  [union] — the real seeds recall is
    measured against — defaults to every real seed of the suite (the
    dedicated suites' labels are exact); [kinds] (default none) selects
    the per-kind breakdown in [dr_by_kind]. *)

val find : t -> string -> run
(** Lookup by variant name; raises [Not_found]. *)

val pair : t -> run * run
(** (baseline, variant) of a two-variant delta such as E11 or E13. *)

(** {1 The experiments} *)

val contexts : unit -> t
(** E11: flat vs [--contexts] phpSAFE over {!Corpus.Context_suite}. *)

val flow : unit -> t
(** E13: flat vs [--flow] phpSAFE over {!Corpus.Flow_suite}. *)

val class_kinds : Vuln.kind list
(** The classes E16 measures, in display order: cmdi, lfi, ssrf, so-sqli. *)

val so_variant_name : string
(** ["phpSAFE (--second-order)"]. *)

val flat_variant_name : string
(** ["phpSAFE"] — single-pass, same taxonomy. *)

val classes : unit -> t
(** E16: two-phase phpSAFE, single-pass phpSAFE, RIPS and Pixy over
    {!Corpus.Classes_suite}, broken down by {!class_kinds}. *)

val so_only_two_phase : t -> bool
(** E16 invariant: the two-phase variant finds every [so-sqli] seed and no
    single-pass variant finds any. *)

val print_contexts : Format.formatter -> t -> unit
val print_flow : Format.formatter -> t -> unit
val print_classes : Format.formatter -> t -> unit
