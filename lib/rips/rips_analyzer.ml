(** RIPS-like analyzer: backward-directed taint analysis (paper §II: "RIPS
    is able to perform backward-directed taint analysis ... based on the
    abstract syntax tree of the PHP script").

    Behavioural model, per the paper's characterisation:
    - analyzes one file at a time (its web UI is driven per file, §IV.B);
    - procedural code only — class bodies are skipped and method calls are
      opaque ("the tool does not parse PHP objects, consequently it misses
      encapsulated vulnerabilities", §II);
    - no CMS knowledge: calls to unknown (WordPress) functions conservatively
      propagate their arguments' taint, which yields false alarms on
      WP-sanitized code and finds flows through unknown wrappers;
    - robust: it never fails a file (§V.E "RIPS succeeded in completing the
      analysis of all files");
    - functions that are never called are still scanned for sinks, so
      plugin callbacks are covered (§V.A).

    The engine linearizes every procedural scope into an event sequence and
    resolves each sink argument {e backwards} through assignments, foreach
    bindings, function returns and call sites. *)

open Secflow
module A = Phplang.Ast
module T = Baseline

type event =
  | Ev_assign of string * A.expr * bool * A.pos
      (** base variable, rhs, [true] when concat-style (joins old value) *)
  | Ev_foreach of string * A.expr * A.pos  (** bound var, subject *)
  | Ev_unset of string list
  | Ev_global of string list
  | Ev_call of string * A.expr list * A.pos  (** call site, for param backtracking *)
  | Ev_return of A.expr option * A.pos

type sink_occ = {
  so_scope : int;
  so_index : int;  (** event index; resolution starts just below it *)
  so_expr : A.expr;
  so_kind : Vuln.kind;
  so_sink : string;
  so_pos : A.pos;
}

type scope = {
  sc_id : int;
  sc_fname : string option;  (** lowercase function name; [None] = top level *)
  sc_params : string list;
  mutable sc_events : event array;
}

type fstate = {
  mutable scopes : scope list;
  mutable sinks : sink_occ list;
  funcs : (string, int) Hashtbl.t;  (** lowercase name -> scope id *)
  mutable work : int;
      (** resolution steps spent on the current sink; self-referential
          definition chains ([$a = $a . $a;] repeated) make naive backward
          resolution exponential, so each sink gets a work budget and
          resolves to clean beyond it — the answer real RIPS's time-boxed
          analysis would give *)
}

let max_work = 50_000

(* ------------------------------------------------------------------ *)
(* Linearization                                                      *)
(* ------------------------------------------------------------------ *)

let base_var_of_lval (e : A.expr) : string option =
  let rec go (e : A.expr) =
    match e.A.e with
    | A.Var v -> Some v
    | A.ArrayGet (b, _) -> go b
    | _ -> None  (* property writes are invisible to RIPS *)
  in
  go e

type lin = {
  mutable events : event list;  (** reversed *)
  mutable count : int;
  st : fstate;
  scope_id : int;
}

let push l ev =
  l.events <- ev :: l.events;
  l.count <- l.count + 1

let push_sink l ~kind ~sink (e : A.expr) =
  l.st.sinks <-
    { so_scope = l.scope_id; so_index = l.count; so_expr = e; so_kind = kind;
      so_sink = sink; so_pos = e.A.epos }
    :: l.st.sinks

(* Emit events for the sub-assignments and call sites inside an expression,
   in evaluation order, then classify the expression's own effect. *)
let rec lin_expr l (e : A.expr) =
  match e.A.e with
  | A.Assign (lhs, rhs) | A.AssignRef (lhs, rhs) -> (
      lin_expr l rhs;
      match base_var_of_lval lhs with
      | Some v ->
          let concatish =
            match lhs.A.e with A.ArrayGet _ -> true | _ -> false
          in
          push l (Ev_assign (v, rhs, concatish, e.A.epos))
      | None -> ())
  | A.OpAssign (op, lhs, rhs) -> (
      lin_expr l rhs;
      match base_var_of_lval lhs with
      | Some v ->
          (* [.=] appends to the old value; any other operator defines the
             variable as the whole expression, which {!resolve} finds
             clean, as it finds [$a + $b] *)
          if op = A.Concat then push l (Ev_assign (v, rhs, true, e.A.epos))
          else push l (Ev_assign (v, e, false, e.A.epos))
      | None -> ())
  | A.ListAssign (slots, rhs) ->
      lin_expr l rhs;
      List.iter
        (fun slot ->
          match slot with
          | Some lv -> (
              match base_var_of_lval lv with
              | Some v -> push l (Ev_assign (v, rhs, false, e.A.epos))
              | None -> ())
          | None -> ())
        slots
  | A.Call (fname, args) ->
      List.iter (lin_expr l) args;
      let fname_lc = String.lowercase_ascii fname in
      push l (Ev_call (fname_lc, args, e.A.epos));
      List.iter
        (fun (kind, a) -> push_sink l ~kind ~sink:fname a)
        (T.sink_args Rips_config.sinks fname_lc args)
  | A.MethodCall (obj, _, args) ->
      lin_expr l obj;
      List.iter (lin_expr l) args
  | A.StaticCall (_, _, args) | A.New (_, args) -> List.iter (lin_expr l) args
  | A.Bin (_, x, y) -> lin_expr l x; lin_expr l y
  | A.Un (_, x) | A.CastE (_, x) | A.EmptyE x | A.Prop (x, _) -> lin_expr l x
  | A.PrintE x ->
      lin_expr l x;
      push_sink l ~kind:Vuln.Xss ~sink:"print" x
  | A.Exit (Some x) ->
      lin_expr l x;
      push_sink l ~kind:Vuln.Xss ~sink:"exit" x
  | A.Exit None -> ()
  | A.Ternary (c, t, e2) ->
      lin_expr l c;
      Option.iter (lin_expr l) t;
      lin_expr l e2
  | A.ArrayGet (b, i) ->
      lin_expr l b;
      Option.iter (lin_expr l) i
  | A.ArrayLit items ->
      List.iter
        (fun (k, v) ->
          Option.iter (lin_expr l) k;
          lin_expr l v)
        items
  | A.Isset es -> List.iter (lin_expr l) es
  | A.IncludeE (_, x) ->
      lin_expr l x;
      (* a dynamic include path is RIPS's file-inclusion sink *)
      push_sink l ~kind:Vuln.Path_traversal ~sink:"include" x
  | A.Interp parts ->
      List.iter (function A.IExpr x -> lin_expr l x | A.ILit _ -> ()) parts
  | A.Closure _ ->
      () (* closures are opaque to RIPS *)
  | A.Null | A.True | A.False | A.Int _ | A.Float _ | A.Str _ | A.Var _
  | A.StaticProp _ | A.ClassConst _ | A.Const _ ->
      ()

let rec lin_stmt l (s : A.stmt) =
  match s.A.s with
  | A.Expr e -> lin_expr l e
  | A.Echo es ->
      List.iter
        (fun e ->
          lin_expr l e;
          push_sink l ~kind:Vuln.Xss ~sink:"echo" e)
        es
  | A.If (branches, els) ->
      List.iter
        (fun (c, b) ->
          lin_expr l c;
          List.iter (lin_stmt l) b)
        branches;
      Option.iter (List.iter (lin_stmt l)) els
  | A.While (c, b) ->
      lin_expr l c;
      List.iter (lin_stmt l) b
  | A.DoWhile (b, c) ->
      List.iter (lin_stmt l) b;
      lin_expr l c
  | A.For (i, c, u, b) ->
      List.iter (lin_expr l) i;
      List.iter (lin_expr l) c;
      List.iter (lin_stmt l) b;
      List.iter (lin_expr l) u
  | A.Foreach (subject, binding, b) ->
      lin_expr l subject;
      (match binding with
      | A.ForeachValue v | A.ForeachKeyValue (_, v) -> (
          match base_var_of_lval v with
          | Some name -> push l (Ev_foreach (name, subject, s.A.spos))
          | None -> ()));
      List.iter (lin_stmt l) b
  | A.Switch (subject, cases) ->
      lin_expr l subject;
      List.iter (fun (c : A.case) -> List.iter (lin_stmt l) c.A.case_body) cases
  | A.Return e ->
      Option.iter (lin_expr l) e;
      push l (Ev_return (e, s.A.spos))
  | A.Global names -> push l (Ev_global names)
  | A.StaticVar vars ->
      List.iter
        (fun (v, init) ->
          match init with
          | Some rhs ->
              lin_expr l rhs;
              push l (Ev_assign (v, rhs, false, s.A.spos))
          | None -> ())
        vars
  | A.Unset es ->
      push l
        (Ev_unset (List.filter_map base_var_of_lval es))
  | A.Block b -> List.iter (lin_stmt l) b
  | A.FuncDef _ -> () (* handled by scope collection *)
  | A.ClassDef _ -> () (* RIPS skips OOP code entirely *)
  | A.TryCatch (b, catches) ->
      List.iter (lin_stmt l) b;
      List.iter
        (fun (c : A.catch) -> List.iter (lin_stmt l) c.A.catch_body)
        catches
  | A.Throw e -> lin_expr l e
  | A.InlineHtml _ | A.Nop | A.Break | A.Continue -> ()

(* Collect scopes: top level + every free function (recursively). *)
let build_fstate (prog : A.program) : fstate =
  let st = { scopes = []; sinks = []; funcs = Hashtbl.create 16; work = 0 } in
  let next_id = ref 0 in
  let fresh () =
    let id = !next_id in
    incr next_id;
    id
  in
  (* class bodies and closure bodies are not entered: RIPS's blind spot *)
  let rec collect_funcs (s : A.stmt) =
    match s.A.s with
    | A.ClassDef _ -> ()
    | A.FuncDef f ->
        let id = fresh () in
        let key = String.lowercase_ascii f.A.f_name in
        if not (Hashtbl.mem st.funcs key) then Hashtbl.replace st.funcs key id;
        let sc =
          { sc_id = id; sc_fname = Some key;
            sc_params = List.map (fun (p : A.param) -> p.A.p_name) f.A.f_params;
            sc_events = [||] }
        in
        st.scopes <- sc :: st.scopes;
        let l = { events = []; count = 0; st; scope_id = id } in
        List.iter (lin_stmt l) f.A.f_body;
        sc.sc_events <- Array.of_list (List.rev l.events);
        List.iter collect_funcs f.A.f_body
    | _ -> A.iter_stmt ~expr:ignore ~stmt:collect_funcs s
  in
  (* top level first so its scope id is deterministic *)
  let top_id = fresh () in
  let top =
    { sc_id = top_id; sc_fname = None; sc_params = []; sc_events = [||] }
  in
  st.scopes <- [ top ];
  List.iter collect_funcs prog;
  let l = { events = []; count = 0; st; scope_id = top_id } in
  List.iter (lin_stmt l) prog;
  top.sc_events <- Array.of_list (List.rev l.events);
  st.scopes <- List.sort (fun a b -> compare a.sc_id b.sc_id) st.scopes;
  st.sinks <- List.rev st.sinks;
  st

let scope_by_id st id = List.find (fun s -> s.sc_id = id) st.scopes

(* ------------------------------------------------------------------ *)
(* Backward resolution                                                *)
(* ------------------------------------------------------------------ *)

let max_depth = 60

(* visited keys prevent infinite regress through recursive code *)
module Visited = Set.Make (String)

(* An operator's value by {!Phplang.Ast.value_flow}: RIPS resolves the
   carried operands with [resolve] and skips those evaluated for their
   effects only. *)
let resolve_operands resolve e =
  A.flow_value ~clean:T.clean ~join:T.join
    ~eval:(fun resolve x -> resolve x)
    ~effect:(fun _ _ -> T.clean)
    resolve e

let rec resolve st ~visited ~depth (scope : scope) (idx : int) (e : A.expr) :
    T.taint =
  st.work <- st.work + 1;
  if depth > max_depth || st.work > max_work then T.clean
  else
    let resolve_here = resolve st ~visited ~depth:(depth + 1) scope idx in
    match e.A.e with
    | A.Var v -> resolve_var st ~visited ~depth scope idx v e.A.epos
    | A.Assign (_, rhs) | A.AssignRef (_, rhs) | A.ListAssign (_, rhs) ->
        resolve_here rhs
    | A.OpAssign (A.Concat, lhs, rhs) ->
        T.join (resolve_here lhs) (resolve_here rhs)
    | A.Call (fname, args) -> resolve_call st ~visited ~depth scope idx fname args e.A.epos
    | _ ->
        (* an operator, or a construct RIPS leaves opaque: OOP, non-concat
           compound assignment, print, include, exit, closures *)
        resolve_operands resolve_here e

and resolve_var st ~visited ~depth scope idx v pos : T.taint =
  if Rips_config.is_superglobal v then
    T.of_source Rips_config.input_kinds (Vuln.Superglobal v) pos
  else
    let key = Printf.sprintf "v:%d:%d:%s" scope.sc_id idx v in
    if Visited.mem key visited then T.clean
    else
      let visited = Visited.add key visited in
      (* walk backwards for the most recent definition *)
      let rec scan j =
        if j < 0 then not_found ()
        else
          match scope.sc_events.(j) with
          | Ev_assign (v', rhs, concatish, _) when String.equal v v' ->
              let t = resolve st ~visited ~depth:(depth + 1) scope j rhs in
              if concatish then T.join t (scan (j - 1)) else t
          | Ev_foreach (v', subject, _) when String.equal v v' ->
              resolve st ~visited ~depth:(depth + 1) scope j subject
          | Ev_unset vs when List.mem v vs -> T.clean
          | _ -> scan (j - 1)
      and not_found () =
        (* parameter? walk to the call sites *)
        match find_param_index scope v with
        | Some pi -> resolve_param st ~visited ~depth scope pi
        | None ->
            (* global declared in this scope resolves at file top level *)
            let declared_global =
              Array.exists
                (function Ev_global names -> List.mem v names | _ -> false)
                scope.sc_events
            in
            if declared_global && scope.sc_fname <> None then
              let top = scope_by_id st 0 in
              resolve_var st ~visited ~depth:(depth + 1) top
                (Array.length top.sc_events) v pos
            else T.clean (* RIPS: uninitialized is harmless *)
      in
      scan (idx - 1)

and find_param_index scope v =
  let rec go i = function
    | [] -> None
    | p :: rest -> if String.equal p v then Some i else go (i + 1) rest
  in
  go 0 scope.sc_params

and resolve_param st ~visited ~depth scope pi : T.taint =
  match scope.sc_fname with
  | None -> T.clean
  | Some fname ->
      let key = Printf.sprintf "p:%d:%d" scope.sc_id pi in
      if Visited.mem key visited then T.clean
      else
        let visited = Visited.add key visited in
        (* every call site of [fname], in any scope of this file *)
        let acc = ref T.clean in
        List.iter
          (fun caller ->
            Array.iteri
              (fun j ev ->
                match ev with
                | Ev_call (callee, args, _) when String.equal callee fname -> (
                    match List.nth_opt args pi with
                    | Some arg ->
                        acc :=
                          T.join !acc
                            (resolve st ~visited ~depth:(depth + 1) caller j arg)
                    | None -> ())
                | _ -> ())
              caller.sc_events)
          st.scopes;
        !acc

and resolve_call st ~visited ~depth scope idx fname args pos : T.taint =
  let resolve_arg a = resolve st ~visited ~depth:(depth + 1) scope idx a in
  let fname_lc = String.lowercase_ascii fname in
  match Rips_config.builtin fname_lc with
  | Some role -> T.apply role ~pos ~arg:resolve_arg args
  | None -> (
      match Hashtbl.find_opt st.funcs fname_lc with
      | Some callee_id ->
          (* user function: resolve its return expressions with this call's
             arguments bound to the parameters *)
          let key = Printf.sprintf "r:%d:%s" scope.sc_id fname_lc in
          if Visited.mem key visited then T.clean
          else
            let visited = Visited.add key visited in
            let callee = scope_by_id st callee_id in
            let acc = ref T.clean in
            Array.iteri
              (fun j ev ->
                match ev with
                | Ev_return (Some rexpr, _) ->
                    let t =
                      resolve_with_binding st ~visited ~depth:(depth + 1)
                        ~binding:(callee, scope, idx, args) callee j rexpr
                    in
                    acc := T.join !acc t
                | _ -> ())
              callee.sc_events;
            !acc
      | None ->
          (* unknown (framework) function: conservatively taint-preserving —
             RIPS has no WordPress profile *)
          T.join_all (List.map resolve_arg args))

(* Resolution inside a callee with parameters bound to call-site arguments:
   a parameter that has no local redefinition resolves to the argument at the
   recorded call site instead of to "all callers". *)
and resolve_with_binding st ~visited ~depth ~binding callee j rexpr =
  let callee_scope, caller_scope, caller_idx, args = binding in
  let rec subst_resolve scope idx (e : A.expr) =
    match e.A.e with
    | A.Var v
      when scope.sc_id = callee_scope.sc_id
           && find_param_index callee_scope v <> None
           && not (locally_defined scope idx v) -> (
        match find_param_index callee_scope v with
        | Some pi -> (
            match List.nth_opt args pi with
            | Some arg ->
                resolve st ~visited ~depth:(depth + 1) caller_scope caller_idx arg
            | None -> T.clean)
        | None -> T.clean)
    | A.Bin ((A.Concat | A.Coalesce), _, _) | A.Interp _ ->
        resolve_operands (subst_resolve scope idx) e
    | A.Call (fname, cargs) ->
        (* builtins keep their semantics with substituted arguments; any
           other call joins them *)
        let role =
          Rips_config.builtin (String.lowercase_ascii fname)
          |> Option.value ~default:T.Join_args
        in
        T.apply role ~pos:e.A.epos ~arg:(subst_resolve scope idx) cargs
    | _ -> resolve st ~visited ~depth:(depth + 1) scope idx e
  and locally_defined scope idx v =
    let rec scan j =
      if j < 0 then false
      else
        match scope.sc_events.(j) with
        | Ev_assign (v', _, _, _) when String.equal v v' -> true
        | Ev_foreach (v', _, _) when String.equal v v' -> true
        | _ -> scan (j - 1)
    in
    scan (idx - 1)
  in
  subst_resolve callee j rexpr

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

let name = "RIPS"

let analyze (prog : A.program) =
  let st = Obs.span "rips.model" (fun () -> build_fstate prog) in
  let findings =
    Obs.span "rips.analysis" @@ fun () ->
    List.filter_map
      (fun so ->
        let scope = scope_by_id st so.so_scope in
        st.work <- 0;
        let t =
          resolve st ~visited:Visited.empty ~depth:0 scope so.so_index
            so.so_expr
        in
        if T.is_tainted so.so_kind t then
          Some
            (T.finding ~note:"tainted source (backward-resolved)"
               ~kind:so.so_kind ~sink_pos:so.so_pos ~sink:so.so_sink
               ~variable:(A.name_of_expr so.so_expr) t)
        else None)
      st.sinks
  in
  (findings, Report.Analyzed)

(* Per-file result-cache fingerprint: RIPS has no runtime configuration;
   of the process-global {!Budget} it only (indirectly) consults the
   parser nesting fuel.  The sink work budget is a compile-time constant,
   covered by {!Phplang.Store.format_version}. *)
let cache_fingerprint () =
  Phplang.Digest.combine
    [ name; string_of_int (Budget.get ()).Budget.parse_depth ]

let analyze_project (project : Phplang.Project.t) : Report.result =
  Cache.file_loop ~tool:name ~fingerprint:(cache_fingerprint ()) ~analyze
    project
