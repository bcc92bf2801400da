(** Taint values for phpSAFE's analysis stage (paper §III.C).

    A value records, per vulnerability kind, whether the data is currently
    attacker-controlled, which formal parameters it depends on (for the
    summary analysis), and — in the [was] fields — what sanitization could
    be undone by a {e revert} function such as [stripslashes] (§III.A).

    Per-kind state is a map indexed by {!Secflow.Vuln.kind}; all operations
    keep it canonical (no clean components, no empty sanitizer sets), so
    structural map equality is a sound convergence test. *)

open Secflow

module Int_set : Set.S with type elt = int
module San_set : Set.S with type elt = string
module Kmap : Map.S with type key = Vuln.kind

(** One vulnerability kind's component of a taint value. *)
type comp = {
  live : bool;            (** currently attacker-controlled *)
  was : bool;             (** tainted before sanitization (revertible) *)
  deps : Int_set.t;       (** parameter indices whose taint reaches here *)
  was_deps : Int_set.t;   (** dependencies neutralised by a sanitizer *)
}

(** Sanitizer-set tracking for the context-inference pass ([--contexts]):
    which sanitizers the value passed through per kind, plus the delta
    information ([undone]/[undone_all]) needed to replay revert effects on
    caller arguments across function-summary boundaries. *)
type sans = {
  applied : San_set.t Kmap.t;  (** per-kind sanitizers passed through *)
  undone : San_set.t;          (** sanitizer names undone by a revert *)
  undone_all : bool;           (** a revert with unknown scope undid them all *)
}

val no_sans : sans

type t = {
  comps : comp Kmap.t;       (** per-kind taint components; canonical *)
  sans : sans;               (** sanitizer set (context pass only) *)
  source : (Vuln.source * Phplang.Ast.pos) option;
  trace : Report.step list;  (** most recent first; bounded *)
  trace_truncated : bool;    (** [trace] hit {!max_trace_len}; steps dropped *)
}

val max_trace_len : int

val untainted : t

val of_source :
  kinds:Vuln.kind list -> source:Vuln.source -> pos:Phplang.Ast.pos -> t
(** Fresh taint from a configured source. *)

val of_param : int -> t
(** Symbolic taint of formal parameter [i] during summary analysis; the
    value depends on the parameter for every kind. *)

val comp : Vuln.kind -> t -> comp
(** [kind]'s component (all-clean when absent from the map). *)

val is_tainted : Vuln.kind -> t -> bool
val deps : Vuln.kind -> t -> Int_set.t
val was : Vuln.kind -> t -> bool
val any_tainted : t -> bool

val any_was : t -> bool
(** Some kind was sanitized away (and could be reverted). *)

val interesting : t -> bool
(** Live taint or parameter dependencies — worth tracing. *)

val join : t -> t -> t
(** Least upper bound; keeps the first available source and the trace of the
    "more tainted" operand.  [join a a] returns [a] itself when every kind
    with an applied sanitizer set is {!relevant}; otherwise it drops the
    sets of the irrelevant kinds, as for any other join. *)

val join_all : t list -> t

val equal_sans : sans -> sans -> bool

val equal_modulo_trace : t -> t -> bool
(** Structural equality ignoring the provenance fields ([source], [trace],
    [trace_truncated]) — the flow-sensitive fixpoint's convergence test. *)

val sanitize : Vuln.kind -> t -> t
(** Neutralise one kind, remembering the prior state for reverts. *)

val sanitize_kinds : Vuln.kind list -> t -> t

val revert : t -> t
(** Revert-function semantics: whatever was sanitized becomes live again. *)

val scrub : t -> t
(** Numeric/boolean results carry no taint at all. *)

val restrict : Vuln.kind -> t -> t
(** Keep only [kind]'s live component (flag, dependencies, provenance);
    the sanitizer set is kept whole. *)

val forget_deps : t -> t
(** Drop every parameter dependency while keeping concrete taint — the base
    of a summary's return-value instantiation. *)

val relevant : Vuln.kind -> t -> bool
(** [kind]'s component is live or parameter-dependent — its sanitizer set
    means something. *)

val applied : Vuln.kind -> t -> San_set.t
(** Sanitizers the value passed through for [kind]. *)

val record_sanitizer : name:string -> Vuln.kind list -> t -> t
(** Context-mode sanitizer call: add [name] to the applied set per kind,
    keeping the live taint bits (adequacy is decided at the sink). *)

val revert_named : undoes:[ `All | `Named of string list ] -> t -> t
(** Context-mode revert call: remove exactly the named sanitizers from the
    applied sets (or all of them for [`All]), remembering what was undone
    for {!compose_sans}. *)

val compose_sans : outer:sans -> inner:sans -> sans
(** Replay the callee delta [inner] on top of the caller argument's [outer]
    sanitizer state: reverts strip first, then the callee's own
    applications are added. *)

val push_step : var:string -> pos:Phplang.Ast.pos -> note:string -> t -> t
(** Append a data-flow hop to the trace (bounded by {!max_trace_len});
    sets [trace_truncated] instead of silently dropping at the cap. *)

val source_of : t -> Vuln.source * Phplang.Ast.pos
(** The recorded source, or [Unknown_source] with a dummy position. *)
