(** RIPS taint values: per-kind flags plus revert bookkeeping.  Simpler than
    phpSAFE's {!Phpsafe.Taint} — the backward analysis resolves parameters
    by walking to call sites instead of carrying dependency sets. *)

open Secflow

module Kset : Set.S with type elt = Vuln.kind

type t = {
  live : Kset.t;
  was : Kset.t;
  source : Vuln.source option;
  source_pos : Phplang.Ast.pos option;
}

val clean : t
val of_source : Vuln.kind list -> Vuln.source -> Phplang.Ast.pos -> t
val is_tainted : Vuln.kind -> t -> bool
val join : t -> t -> t
val join_all : t list -> t
val sanitize : Vuln.kind list -> t -> t
val revert : t -> t
