(** Function summaries (paper §III.C, "Functions summaries — a function is
    parsed only once. The summary of this analysis is reused in subsequent
    calls to determine the effects on the context of the calling code").

    A summary records the taint of the return value — including which formal
    parameters flow into it — and the {e conditional sinks}: sensitive sinks
    inside the function that fire when a given parameter is tainted.
    Unconditional flows (source and sink both inside the function) are
    reported during the single summary analysis itself. *)

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
      (** sanitizer delta the callee applied on the param-to-sink path;
          replayed on the caller argument's own set when the sink fires *)
}

type t = {
  ret : Taint.t;
      (** return-value taint; its [deps_*] fields name the flow-through
          parameters *)
  cond_sinks : cond_sink list;
}

(** Instantiate the summary's return taint at a call site: the concrete part
    carries over, and each parameter dependency imports the matching
    argument's component for that kind — including the argument's own
    symbolic dependencies, so flow-through composes across nested calls. *)
let instantiate_return summary (args : Taint.t list) : Taint.t =
  let arg i = List.nth_opt args i |> Option.value ~default:Taint.untainted in
  let import kind deps acc =
    Taint.Int_set.fold
      (fun i acc ->
        (* one kind's component: a function may pass a parameter
           through for one class while sanitizing another *)
        let a = Taint.restrict kind (arg i) in
        (* replay the callee's sanitizer delta on the imported argument *)
        let a =
          { a with
            Taint.sans =
              Taint.compose_sans ~outer:a.Taint.sans
                ~inner:summary.ret.Taint.sans }
        in
        Taint.join acc a)
      deps acc
  in
  let base = Taint.forget_deps summary.ret in
  let acc =
    List.fold_left
      (fun acc kind -> import kind (Taint.deps kind summary.ret) acc)
      Taint.untainted Vuln.all_kinds
  in
  Taint.join base acc

(** Conditional sinks triggered by a call with argument taints [args]:
    returns the findings to report ([`Fire]) and, when an argument is itself
    parameter-dependent (nested call during an enclosing summary analysis),
    the hoisted conditional sinks to propagate outward ([`Hoist]). *)
let fire_cond_sinks summary (args : Taint.t list) =
  let arg i = List.nth_opt args i |> Option.value ~default:Taint.untainted in
  List.concat_map
    (fun cs ->
      let a = arg cs.cs_param in
      let fire = if Taint.is_tainted cs.cs_kind a then [ `Fire (cs, a) ] else [] in
      let hoist =
        (* the hoisted sink's delta includes what already happened to the
           argument inside this callee's caller *)
        let hoisted_sans =
          Taint.compose_sans ~outer:a.Taint.sans ~inner:cs.cs_sans
        in
        Taint.Int_set.fold
          (fun outer acc ->
            `Hoist { cs with cs_param = outer; cs_sans = hoisted_sans } :: acc)
          (Taint.deps cs.cs_kind a) []
      in
      fire @ hoist)
    summary.cond_sinks
