(** Lines-of-code accounting for the corpus size report (paper §V.E), the
    seconds-per-kLOC responsiveness metric and phpSAFE's include-closure
    memory budget (each file's count rides its parse-memo entry, see
    {!Project.facts}). *)

val physical_lines : string -> int
(** Physical lines in a source string (a trailing newline does not start a
    new line). *)

val count : string -> int
(** Non-blank lines — the LOC measure reported everywhere. *)
