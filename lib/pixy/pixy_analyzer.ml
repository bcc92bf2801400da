(** Pixy-like analyzer: flow-sensitive, intra- and inter-procedural forward
    data-flow analysis over a CFG of basic blocks (paper §II, after
    Jovanovic et al., S&P'06).

    Behavioural model, per the paper's characterisation:
    - {b no OOP}: any file containing object-oriented constructs fails with
      an error message ("Pixy failed to complete the analysis on 32 files...
      probably because it is an old tool and does not recognize OOP code",
      §V.E);
    - {b register_globals = 1} is assumed, so possibly-uninitialized
      variables in the global scope count as attacker-controlled ("half of
      the vulnerabilities it found were due to this directive", §V.A);
    - per-file analysis, no include resolution;
    - functions are analyzed {e only when called} — "although phpSAFE and
      RIPS are able to detect vulnerabilities in functions that are not
      called from the plugin code, Pixy is unable to do so" (§V.A);
    - 2007-era knowledge: classic sanitizers only, no WordPress profile, no
      revert modelling. *)

open Secflow
module A = Phplang.Ast
module T = Baseline
module S = Pixy_taint
module Cfg = Dataflow.Cfg

(* ------------------------------------------------------------------ *)
(* OOP detection                                                      *)
(* ------------------------------------------------------------------ *)

exception Oop of string

(* Pre-order: a node is checked before its children, so the reported
   construct is the first OOP one in source order. *)
let rec oop_expr (e : A.expr) =
  (match e.A.e with
  | A.MethodCall _ -> raise (Oop "method call")
  | A.New _ -> raise (Oop "object instantiation")
  | A.Prop _ -> raise (Oop "property access")
  | A.StaticCall _ | A.StaticProp _ | A.ClassConst _ ->
      raise (Oop "static member access")
  | _ -> ());
  A.iter_expr ~expr:oop_expr ~stmt:oop_stmt e

and oop_stmt (s : A.stmt) =
  (match s.A.s with A.ClassDef _ -> raise (Oop "class declaration") | _ -> ());
  A.iter_stmt ~expr:oop_expr ~stmt:oop_stmt s

(* ------------------------------------------------------------------ *)
(* Analysis context                                                   *)
(* ------------------------------------------------------------------ *)

type fctx = {
  funcs : (string, A.func) Hashtbl.t;
  mutable findings : Report.finding list;
  mutable seen : Report.Key_set.t;
  memo : (string, T.taint) Hashtbl.t;
      (** return taint per (function, argument-taint signature) *)
  mutable in_progress : string list;
  mutable over_budget : bool;
      (** a dataflow fixpoint hit the pass budget before converging — the
          states computed so far are kept (an under-approximation: more
          passes could only add taint) and the file is reported as
          budget-exhausted *)
}

(* nesting cap on inlined calls of user functions *)
let max_inline_depth = 8

(* The fixpoint replays transfers, so the sink is keyed per walk: a later
   pass over the same sink reports nothing new. *)
let report_if_tainted fx ~kind ~pos ~sink_name (arg : A.expr) t =
  let key =
    { Report.k_kind = kind; k_file = pos.A.file; k_line = pos.A.line }
  in
  if T.is_tainted kind t && not (Report.Key_set.mem key fx.seen) then begin
    fx.seen <- Report.Key_set.add key fx.seen;
    fx.findings <-
      T.finding ~note:"tainted on some program path" ~kind ~sink_pos:pos
        ~sink:sink_name ~variable:(A.name_of_expr arg) t
      :: fx.findings
  end

(* ------------------------------------------------------------------ *)
(* Transfer function                                                  *)
(* ------------------------------------------------------------------ *)

type scope = {
  fx : fctx;
  global_scope : bool;
  depth : int;
  returns : T.taint ref;  (** accumulated return taint of this scope *)
}

let rec eval sc (st : S.state) (e : A.expr) : S.state * T.taint =
  let pos = e.A.epos in
  match e.A.e with
  | A.Var v ->
      if Pixy_config.is_superglobal v then
        (st, T.of_source Pixy_config.input_kinds (Vuln.Superglobal v) pos)
      else (st, S.read ~global_scope:sc.global_scope st v pos)
  | A.Prop (b, _) -> eval sc st b  (* unreachable: OOP files fail earlier *)
  | A.Assign (lhs, rhs) | A.AssignRef (lhs, rhs) ->
      let st, t = eval sc st rhs in
      (assign sc st lhs t, t)
  | A.ListAssign (slots, rhs) ->
      let st, t = eval sc st rhs in
      let st =
        List.fold_left
          (fun st slot ->
            match slot with Some lv -> assign sc st lv t | None -> st)
          st slots
      in
      (st, t)
  | A.OpAssign (op, lhs, rhs) ->
      let st, old = eval sc st lhs in
      let st, rt = eval sc st rhs in
      let t = match op with A.Concat -> T.join old rt | _ -> T.clean in
      (assign sc st lhs t, t)
  | A.PrintE x ->
      let st, t = eval sc st x in
      report_if_tainted sc.fx ~kind:Vuln.Xss ~pos ~sink_name:"print" x t;
      (st, T.clean)
  | A.Exit (Some x) ->
      let st, t = eval sc st x in
      report_if_tainted sc.fx ~kind:Vuln.Xss ~pos ~sink_name:"exit" x t;
      (st, T.clean)
  | A.IncludeE (_, x) ->
      let st, _ = eval sc st x in
      (st, T.clean)  (* Pixy does not resolve includes *)
  | A.Call (fname, args) -> eval_call sc st fname args pos
  | _ ->
      (* an operator (the state threads through its operands in order), or
         a construct Pixy leaves opaque: OOP, exit, closures *)
      let st = ref st in
      let t =
        A.flow_value ~clean:T.clean ~join:T.join ~eval:eval_in
          ~effect:eval_in (sc, st) e
      in
      (!st, t)

and eval_in (sc, st) e =
  let st', t = eval sc !st e in
  st := st';
  t

and eval_call sc st fname args pos : S.state * T.taint =
  let fname_lc = String.lowercase_ascii fname in
  (* evaluate arguments left to right *)
  let st, arg_ts =
    List.fold_left
      (fun (st, acc) a ->
        let st, t = eval sc st a in
        (st, t :: acc))
      (st, []) args
  in
  let arg_ts = List.rev arg_ts in
  List.iter
    (fun (kind, (a, t)) ->
      report_if_tainted sc.fx ~kind ~pos ~sink_name:fname a t)
    (T.sink_args Pixy_config.sinks fname_lc (List.combine args arg_ts));
  match Pixy_config.builtin fname_lc with
  | Some role -> (st, T.apply role ~pos ~arg:Fun.id arg_ts)
  | None -> (
      match Hashtbl.find_opt sc.fx.funcs fname_lc with
      | Some f when sc.depth < max_inline_depth ->
          (st, call_function sc fname_lc f arg_ts)
      | Some _ -> (st, T.clean)
      | None ->
          (* unknown (framework) function: pessimistic, taint-preserving *)
          (st, T.join_all arg_ts))

(* Inline inter-procedural analysis: run the callee's CFG with the
   arguments' taint bound to the parameters, memoized per signature — the
   arguments' live kinds, exactly. *)
and call_function sc fname (f : A.func) (arg_ts : T.taint list) : T.taint =
  let signature =
    fname ^ ":"
    ^ String.concat "," (List.map (fun t -> string_of_int t.T.live) arg_ts)
  in
  match Hashtbl.find_opt sc.fx.memo signature with
  | Some t -> t
  | None ->
      if List.mem signature sc.fx.in_progress then T.clean
      else begin
        sc.fx.in_progress <- signature :: sc.fx.in_progress;
        let init =
          List.fold_left
            (fun st (i, (p : A.param)) ->
              let t = List.nth_opt arg_ts i |> Option.value ~default:T.clean in
              S.write st p.A.p_name t)
            S.empty_state
            (List.mapi (fun i p -> (i, p)) f.A.f_params)
        in
        let returns = ref T.clean in
        let sub =
          { fx = sc.fx; global_scope = false; depth = sc.depth + 1; returns }
        in
        ignore (run_dataflow sub f.A.f_body init);
        sc.fx.in_progress <-
          List.filter (fun s -> not (String.equal s signature)) sc.fx.in_progress;
        Hashtbl.replace sc.fx.memo signature !returns;
        !returns
      end

and assign sc (st : S.state) (lhs : A.expr) (t : T.taint) : S.state =
  match lhs.A.e with
  | A.Var v -> S.write st v t
  | A.ArrayGet (b, i) ->
      let st =
        match i with
        | Some i ->
            let st, _ = eval sc st i in
            st
        | None -> st
      in
      assign_join sc st b t
  | _ -> st

and assign_join sc st (lhs : A.expr) t =
  match lhs.A.e with
  | A.Var v -> S.write_join st v t
  | A.ArrayGet (b, _) -> assign_join sc st b t
  | _ -> st

and exec_stmt sc (st : S.state) (s : A.stmt) : S.state =
  match s.A.s with
  | A.Expr e ->
      let st, _ = eval sc st e in
      st
  | A.Echo es ->
      List.fold_left
        (fun st e ->
          let st, t = eval sc st e in
          report_if_tainted sc.fx ~kind:Vuln.Xss ~pos:e.A.epos
            ~sink_name:"echo" e t;
          st)
        st es
  | A.Foreach (subject, binding, []) ->
      let st, t = eval sc st subject in
      let st =
        match binding with
        | A.ForeachValue v -> assign sc st v t
        | A.ForeachKeyValue (k, v) -> assign sc (assign sc st k t) v t
      in
      st
  | A.Global names ->
      (* globals exist after startup: not register_globals candidates *)
      List.fold_left
        (fun st v ->
          match S.VMap.find_opt v st with
          | Some _ -> st
          | None -> S.write st v T.clean)
        st names
  | A.StaticVar vars ->
      List.fold_left
        (fun st (v, init) ->
          let st, t =
            match init with
            | Some e -> eval sc st e
            | None -> (st, T.clean)
          in
          S.write st v t)
        st vars
  | A.Unset es ->
      List.fold_left
        (fun st e ->
          match e.A.e with A.Var v -> S.write st v T.clean | _ -> st)
        st es
  | A.Return e ->
      let st, t =
        match e with Some e -> eval sc st e | None -> (st, T.clean)
      in
      sc.returns := T.join !(sc.returns) t;
      st
  | A.Throw e ->
      let st, _ = eval sc st e in
      st
  | _ -> st  (* structure handled by the CFG; declarations skipped *)

(* ------------------------------------------------------------------ *)
(* Worklist solver — Pixy's taint as a config of the shared engine    *)
(* ------------------------------------------------------------------ *)

(* The transfer passes its whole state; outside it, it reads only [fx.memo]
   and [fx.in_progress].  A memo entry stored during a pass is the return
   taint that pass used, and a later pass reads it back; [in_progress] is
   balanced per call; findings de-duplicate through [fx.seen]; [returns]
   only joins and no transfer of this walk reads it.  So nothing a pass
   writes changes what the next one reads, and the solver's [effects]
   counter stands still: a pass that changed no back-edge source is final. *)
and run_dataflow sc (stmts : A.stmt list) (init : S.state) : S.state =
  let cfg = Cfg.build stmts in
  let res =
    Dataflow.Fixpoint.solve ~check:Secflow.Deadline.check
      {
        Dataflow.Fixpoint.init;
        bottom = S.empty_state;
        join = S.join_state ~global_scope:sc.global_scope;
        equal = S.equal_state;
        transfer = exec_stmt sc;
        effects = (fun () -> 0);
        max_passes = (Budget.get ()).Budget.fixpoint_passes;
      }
      cfg
  in
  Obs.add "pixy.fixpoint.passes" res.Dataflow.Fixpoint.passes;
  if not res.Dataflow.Fixpoint.converged then begin
    (* the pass budget ran out before a fixpoint: the last states stand,
       under-approximating the converged result, and the file is flagged
       instead of looping *)
    sc.fx.over_budget <- true;
    Obs.incr "pixy.fixpoint.exhausted"
  end;
  res.Dataflow.Fixpoint.exit_state

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

(* Functions are hoisted from any statement nesting, but not from closure
   bodies (expressions are not entered); the OOP gate has already refused
   any file with a class. *)
let rec collect_funcs tbl (s : A.stmt) =
  (match s.A.s with
  | A.FuncDef f ->
      let key = String.lowercase_ascii f.A.f_name in
      if not (Hashtbl.mem tbl key) then Hashtbl.replace tbl key f
  | _ -> ());
  A.iter_stmt ~expr:ignore ~stmt:(collect_funcs tbl) s

let analyze (prog : A.program) =
  (* model stage: the OOP gate plus the callable registry *)
  match
    Obs.span "pixy.model" (fun () ->
        List.iter oop_stmt prog;
        let funcs = Hashtbl.create 16 in
        List.iter (collect_funcs funcs) prog;
        funcs)
  with
  | exception Oop what -> ([], Report.fail (Report.Unsupported_syntax what))
  | funcs ->
      let fx =
        { funcs; findings = []; seen = Report.Key_set.empty;
          memo = Hashtbl.create 32; in_progress = []; over_budget = false }
      in
      let sc = { fx; global_scope = true; depth = 0; returns = ref T.clean } in
      Obs.span "pixy.analysis" (fun () ->
          ignore (run_dataflow sc prog S.empty_state));
      ( List.rev fx.findings,
        if fx.over_budget then
          Report.fail
            (Report.Budget_exhausted "dataflow fixpoint pass budget exhausted")
        else Report.Analyzed )

(* Per-file result-cache fingerprint: Pixy consults the parser nesting
   fuel and the dataflow fixpoint pass cap; the include caps are
   irrelevant (it never resolves includes), so [--budget-include-*]
   leaves Pixy entries valid. *)
let cache_fingerprint () =
  let b = Budget.get () in
  Phplang.Digest.combine
    [ "Pixy";
      string_of_int b.Budget.parse_depth;
      string_of_int b.Budget.fixpoint_passes ]

let analyze_project (project : Phplang.Project.t) : Report.result =
  Cache.file_loop ~tool:"Pixy" ~fingerprint:(cache_fingerprint ()) ~analyze
    project
