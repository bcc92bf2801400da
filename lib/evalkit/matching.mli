(** Matching tool findings against the corpus ground truth — the paper's
    normalized "single repository" comparison (§IV.B step 5), with the
    generator's labels replacing the manual expert verification. *)

open Secflow

(** Finding identity across the whole corpus: plugin-qualified
    (kind, file, line). *)
module Qkey : sig
  type t = { plugin : string; key : Report.key }

  val compare : t -> t -> int
end

module Qset : Set.S with type elt = Qkey.t
module Qmap : Map.S with type key = Qkey.t

(** Per-tool, per-plugin raw results. *)
type tool_output = {
  to_tool : string;
  to_results : (string * Report.result) list;  (** plugin name × result *)
}

val detections : tool_output -> Qset.t
(** De-duplicated detection set over the whole corpus. *)

type classified = {
  cl_tool : string;
  cl_tp : Corpus.Gt.seed list;       (** real vulnerabilities detected *)
  cl_trap_fp : Corpus.Gt.seed list;  (** planned FP traps triggered *)
  cl_stray_fp : Qkey.t list;
      (** detections matching no seed — should stay empty; any entry is an
          analyzer or generator bug worth investigating *)
}

val classify : seeds:Corpus.Gt.seed list -> tool_output -> classified

val detected_union : classified list -> Corpus.Gt.seed list
(** The union of real vulnerabilities found by any tool — the paper's
    reference set for the optimistic Recall. *)

val metrics_for :
  ?kind:Vuln.kind -> union:Corpus.Gt.seed list -> classified -> Metrics.t
(** TP/FP/FN for one tool, optionally restricted to one vulnerability kind;
    FN counts union members the tool missed. *)
