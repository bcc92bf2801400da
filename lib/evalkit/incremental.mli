(** E12 — incremental cross-version re-analysis: cold vs warm wall clock
    per tool against the persistent cache, and the fraction of V.2014 files
    whose stored result (RIPS, Pixy) or parse (phpSAFE) is reused from a
    V.2012-populated cache. *)

type tool_point = {
  ip_tool : string;
  ip_cold_s : float;  (** V.2014, empty cache directory *)
  ip_warm_s : float;  (** V.2014 again, cache populated by the cold run *)
  ip_warm_hits : int;
      (** hits in the tool's replay namespace during the warm run: ["parse"]
          for phpSAFE, ["result"] for RIPS and Pixy *)
  ip_reused : int;  (** V.2014 files replayed from a V.2012-populated cache *)
}

type report = {
  ir_files_2014 : int;  (** files in the V.2014 corpus *)
  ir_points : tool_point list;
  ir_cold_total : float;
  ir_warm_total : float;
}

val measure :
  ?tools:Secflow.Tool.t list ->
  ?corpus12:Corpus.t ->
  ?corpus14:Corpus.t ->
  unit ->
  report
(** Runs in temporary cache directories (removed afterwards) and restores
    the store root that was active on entry.  Corpora are generated when
    not supplied. *)

val print : Format.formatter -> report -> unit
