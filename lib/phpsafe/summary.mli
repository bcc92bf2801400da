(** Function summaries (paper §III.C: "a function is parsed only once; the
    summary of this analysis is reused in subsequent calls"). *)

open Secflow

(** What firing a conditional sink does. *)
type target =
  | Report of string
      (** report a finding at the sink of this name ([echo],
          [mysql_query], [$wpdb->query], …) *)
  | Db_write of string
      (** second-order record phase: record this DB-write key (the table
          or option name, or ["*"] when not statically known); never
          reports *)

type cond_sink = {
  cs_param : int;            (** formal parameter index feeding the sink *)
  cs_kind : Vuln.kind;
  cs_target : target;        (** report, or record a second-order write *)
  cs_pos : Phplang.Ast.pos;  (** sink location inside the callee *)
  cs_var : string;           (** variable name at the sink *)
  cs_context : Context.t option;
      (** output context inferred at the callee's sink (context pass) *)
  cs_sans : Taint.sans;
      (** sanitizer delta the callee applied on the param-to-sink path *)
}

type t = {
  ret : Taint.t;
      (** return-value taint; its [deps_*] fields name the flow-through
          parameters *)
  cond_sinks : cond_sink list;
}

val instantiate_return : t -> Taint.t list -> Taint.t
(** Apply a summary's return taint to concrete argument taints; argument
    dependencies are propagated so flow-through composes across nested
    calls. *)

val fire_cond_sinks :
  t ->
  Taint.t list ->
  [ `Fire of cond_sink * Taint.t | `Hoist of cond_sink ] list
(** Conditional sinks triggered by a call: [`Fire] for live argument taint
    (report now), [`Hoist] when the argument is itself parameter-dependent
    (propagate into the enclosing summary). *)
