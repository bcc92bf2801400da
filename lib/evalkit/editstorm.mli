(** E17 — incremental re-analysis under a deterministic edit storm:
    per-edit wall clock of the warm path (a streaming re-parse of the
    edited file, every other file served by the parse memo, live analysis)
    against a cold full re-analysis of the same bytes, with
    byte-identical-report verification after every edit.  See editstorm.ml
    for the edit shapes and what each exercises. *)

type kind = Single_def | Whitespace | Cross_def | Signature

type point = {
  pt_kind : kind;
  pt_full_ms : float;  (** cold full re-analysis of the whole corpus *)
  pt_inc_ms : float;  (** incremental update + warm corpus re-analysis *)
  pt_identical : bool;  (** the two rendered reports match byte-for-byte *)
}

type report = {
  es_seed : int;
  es_plugin : string;  (** the plugin the edits landed in *)
  es_projects : int;  (** plugins re-analyzed after every edit *)
  es_files : int;
  es_edits : int;
  es_points : point list;
  es_violations : int;  (** points with differing reports — must be 0 *)
  es_single_full_p50_ms : float;
  es_single_inc_p50_ms : float;
  es_single_speedup : float;
      (** median full / median incremental, single-definition edits only —
          the headline claim (goal: >= 5x) *)
}

val measure : ?seed:int -> ?edits:int -> ?corpus:Corpus.t -> unit -> report
(** Run the storm (default: seed [0x5afe17], 48 edits landing in the
    largest V.2012 plugin; every edit re-analyzes the whole corpus both
    ways).  Uses its own temporary store directory; the store root active
    before the call is restored. *)

val print : Format.formatter -> report -> unit
