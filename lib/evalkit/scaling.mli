(** E10 — scaling study: per-tool wall time and seconds/kLOC on corpora
    regenerated at several size multipliers (the measured form of §V.E's
    "should scale to larger files"). *)

type point = {
  sp_scale : float;
  sp_files : int;
  sp_loc : int;
  sp_seconds : (string * float) list;  (** per tool *)
}

val measure :
  ?scales:float list ->
  ?tools:Secflow.Tool.t list ->
  Corpus.Plan.version ->
  point list
(** [scales] defaults to [[0.5; 1.0; 2.0; 4.0]]. *)

val print : Format.formatter -> point list -> unit
