(** phpSAFE analysis stage (paper §III.C): follows the flow of tainted
    variables from the moment they enter the plugin until they reach a
    sensitive output, across assignments, expressions, function and method
    calls, returns, conditionals and loops.

    The walk is inter-procedural and summary-based: each user-defined
    function or method is analyzed once, with its formal parameters bound to
    symbolic taint; subsequent calls instantiate the recorded summary
    (§III.C "Call of a plugin user-defined function").  OOP is handled by
    resolving full property/method names through object→class bindings
    (§III.E), and by the method entries in the configuration (the [$wpdb]
    family).  Functions never called from plugin code are analyzed as entry
    points at the end — "to reach 100% code coverage, all the functions
    should be analyzed, even those that are never called". *)

open Secflow
module S = Set.Make (String)
module SMap = Env.SMap

type budget = {
  max_include_depth : int;
  max_closure_loc : int;
}

(** Mirrors the paper's observed limits: phpSAFE "was unable to analyze one
    file [2012] and three files [2014]" whose include chains "required a lot
    of memory" (§V.E). *)
let default_budget = { max_include_depth = 6; max_closure_loc = 40_000 }

(** Second-order analysis phase ({!analyze_project_so}). *)
type so_mode =
  | So_off      (** ordinary single-pass analysis; zero behavioural change *)
  | So_record   (** phase 1: record DB-write keys reached by tainted data *)
  | So_replay of string list
      (** phase 2: matching DB reads return second-order-tainted data;
          the sorted keys are the writes phase 1 recorded *)

type options = {
  config : Config.t;
  budget : budget option;
  analyze_uncalled : bool;
      (** stage 3b: analyze functions never called from plugin code
          (§III.C).  Disabling this is the "Pixy-style" ablation. *)
  resolve_includes : bool;
      (** inline [include]d files into the current analysis (§III.B).
          Disabling also disables the memory budget, since no include
          closure is built. *)
  respect_guards : bool;
      (** paper future-work extension: treat
          [if (!is_numeric($x)) exit;] termination guards as sanitizers for
          the guarded variable, removing the path-insensitivity false
          positives at the cost of path reasoning. Off by default — the
          published phpSAFE is path-insensitive. *)
  infer_contexts : bool;
      (** §VI future-work extension ([--contexts]): infer the output
          context of each sink occurrence from the literal text around the
          tainted value ({!Phplang.Strshape}) and accept only sanitizers
          adequate for that context ({!Config.adequate}).  Sanitizer calls
          then record their name instead of clearing the taint, and the
          verdict moves to the sink.  Off by default — the published
          phpSAFE is context-insensitive. *)
  flow_sensitive : bool;
      (** [--flow] extension: run every body walk (file entries, function
          and closure bodies) over the shared {!Dataflow.Cfg} with a
          fixpoint instead of one straight-line pass, so sanitization
          applied on one branch of an [if] no longer suppresses findings on
          the other branch, and loop back-edges re-generate taint assigned
          after a sink.  Off by default — the published phpSAFE processes
          conditionals and loops flow-insensitively (§III.C "Conditions and
          loops do not change the data flow"). *)
  so_mode : so_mode;
      (** second-order SQLi phase; [So_off] outside
          {!analyze_project_so}. *)
}

let default_options =
  { config = Wordpress.default_config;
    budget = Some default_budget;
    analyze_uncalled = true;
    resolve_includes = true;
    respect_guards = false;
    infer_contexts = false;
    flow_sensitive = false;
    so_mode = So_off }

(** Numeric/type guard functions whose failure developers use to abort the
    request; recognised only under [respect_guards]. *)
let guard_functions = [ "is_numeric"; "ctype_digit"; "is_int"; "ctype_alnum" ]

type func_info = {
  fi_key : string;            (** lowercase "name" or "class::name" *)
  fi_func : Phplang.Ast.func;
  fi_class : string option;
  fi_file : string;
}

type ctx = {
  opts : options;
  ix : Config.index;  (** [opts.config]'s role lookups, built in stage 1 *)
  parsed : (string, Phplang.Ast.program) Hashtbl.t;
  funcs : (string, func_info) Hashtbl.t;
  classes : (string, Phplang.Ast.cls) Hashtbl.t;
  summaries : (string, Summary.t) Hashtbl.t;
  in_progress : (string, unit) Hashtbl.t;
  globals : Env.table;
  mutable findings : Report.finding list;
  mutable reported : Report.Occurrence_set.t;
  mutable include_stack : S.t;  (** include cycle cut, per entry run *)
  mutable errors : int;
  mutable so_writes : S.t;
      (** DB-write keys reached by SQL-tainted data ([So_record] phase);
          ["*"] stands for a write whose key is not statically known *)
  mutable exhausted : S.t;
      (** files with a [--flow] body walk that ran out of fixpoint passes;
          their outcome becomes [Budget_exhausted] when results assemble *)
}

type frame = {
  mutable fr_ret : Taint.t;
  mutable fr_csinks : Summary.cond_sink list;
}

(** Per-walk context: global [ctx], current scope, current file and the
    summary frame when analyzing a function body. *)
type actx = {
  c : ctx;
  env : Env.t;
  frame : frame option;
  file : string;
}

(* ------------------------------------------------------------------ *)
(* Reporting                                                          *)
(* ------------------------------------------------------------------ *)

(** The kinds one configured sink entry checks: a SQLi sink also checks the
    second-order kind when a second-order phase is active (the replayed
    taint still lands in a SQL statement — no extra sink entries needed). *)
let sink_check_kinds a kind =
  match kind with
  | Vuln.Sqli when a.c.opts.so_mode <> So_off ->
      [ Vuln.Sqli; Vuln.Second_order_sqli ]
  | k -> [ k ]

let record_so_write (c : ctx) key = c.so_writes <- S.add key c.so_writes

let record_exhausted (c : ctx) file = c.exhausted <- S.add file c.exhausted

(** The one reporting gate: a finding is kept unless its occurrence was
    already reported, and is built only when kept. *)
let report a ?context ~kind ~pos ~sink_name ~var (taint : Taint.t) =
  let c = a.c in
  let occ =
    { Report.o_key =
        { Report.k_kind = kind; k_file = pos.Phplang.Ast.file;
          k_line = pos.Phplang.Ast.line };
      o_sink = sink_name;
      o_var = var }
  in
  Obs.incr "phpsafe.findings.pre_dedup";
  if not (Report.Occurrence_set.mem occ c.reported) then begin
    Obs.incr "phpsafe.findings.post_dedup";
    c.reported <- Report.Occurrence_set.add occ c.reported;
    let source, source_pos = Taint.source_of taint in
    c.findings <-
      {
        Report.kind;
        sink_pos = pos;
        sink = sink_name;
        variable = var;
        source;
        source_pos;
        trace = List.rev taint.Taint.trace;
        context;
        sanitizers_applied = Taint.San_set.elements (Taint.applied kind taint);
        trace_truncated = taint.Taint.trace_truncated;
      }
      :: c.findings
  end

(** Register conditional sinks on the summary being built: one copy of
    [cs] per parameter in [params], each with that parameter as its
    [cs_param].  Outside a function body there is no summary to extend. *)
let register_cond_sinks a params (cs : Summary.cond_sink) =
  match a.frame with
  | Some frame ->
      Taint.Int_set.iter
        (fun i ->
          frame.fr_csinks <-
            { cs with Summary.cs_param = i } :: frame.fr_csinks)
        params
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Context inference (--contexts, §VI future work)                    *)
(* ------------------------------------------------------------------ *)

let ctx_on a = a.c.opts.infer_contexts

(** Map the string-shape classification of the constant text before a sink
    hole to the report-level context taxonomy. *)
let infer_context kind prefix =
  match kind with
  | Vuln.Xss -> (
      match Phplang.Strshape.classify_html prefix with
      | Phplang.Strshape.H_body -> Context.Html_body
      | Phplang.Strshape.H_attr_quoted -> Context.Html_attr_quoted
      | Phplang.Strshape.H_attr_unquoted -> Context.Html_attr_unquoted
      | Phplang.Strshape.H_url -> Context.Url
      | Phplang.Strshape.H_js_string -> Context.Js_string)
  | Vuln.Sqli | Vuln.Second_order_sqli -> (
      (* second-order taint still lands in a SQL statement, so the SQL
         context taxonomy applies unchanged *)
      match Phplang.Strshape.classify_sql prefix with
      | Phplang.Strshape.S_quoted -> Context.Sql_quoted_string
      | Phplang.Strshape.S_numeric -> Context.Sql_numeric
      | Phplang.Strshape.S_identifier -> Context.Sql_identifier)
  | Vuln.Cmdi -> Context.Shell_arg
  | Vuln.Path_traversal -> Context.File_path
  | Vuln.Ssrf -> Context.Url_remote

(** The sink verdict, shared by a direct sink and a fired conditional
    sink: a tainted value is reported unless it passed through a sanitizer
    adequate for its output context.  The published mode infers no
    context, so there every tainted value is reported. *)
let reportable ix kind context (taint : Taint.t) =
  match context with
  | None -> true
  | Some ctxt ->
      not
        (Taint.San_set.exists
           (fun name -> Config.adequate ix ~name ctxt)
           (Taint.applied kind taint))

(* ------------------------------------------------------------------ *)
(* Sink applicability and second-order DB endpoints                   *)
(* ------------------------------------------------------------------ *)

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

(** Statically-known URL shape of a sink argument: true when its constant
    prefix starts with [http://] or [https://].  A bare dynamic argument
    counts as non-URL — [file_get_contents($_GET['f'])] reads a local
    path, not a remote one. *)
let arg_is_url (e : Phplang.Ast.expr) =
  match Phplang.Strshape.pieces e with
  | Phplang.Strshape.Lit s :: _ ->
      let s = String.lowercase_ascii s in
      has_prefix ~prefix:"http://" s || has_prefix ~prefix:"https://" s
  | _ -> false

(** Does sink entry [snk] apply to this particular call and argument?
    [snk_when_const] gates on a bare-constant argument
    ([curl_setopt(_, CURLOPT_URL, _)]); [snk_path_shape] separates the LFI
    and SSRF readings of dual-use sinks like [file_get_contents]. *)
let sink_applies (snk : Config.sink_entry) ~args ~(arg : Phplang.Ast.expr) =
  (match snk.Config.snk_when_const with
  | None -> true
  | Some (i, cname) -> (
      match List.nth_opt args i with
      | Some { Phplang.Ast.e = Phplang.Ast.Const c; _ } -> String.equal c cname
      | _ -> false))
  && (match snk.Config.snk_path_shape with
     | `Any -> true
     | `Url_prefix -> arg_is_url arg
     | `Non_url -> not (arg_is_url arg))

(** Static write/read key of a DB endpoint call: the string literal at the
    key argument, or ["*"] when not statically known. *)
let db_key (rw : Config.db_rw_entry) (args : Phplang.Ast.expr list) =
  if rw.Config.rw_key_arg < 0 then "*"
  else
    match List.nth_opt args rw.Config.rw_key_arg with
    | Some { Phplang.Ast.e = Phplang.Ast.Str s; _ } -> s
    | _ -> "*"

(** DB-write endpoint ([$wpdb->insert], [update_option], …): when the
    stored value is SQL-tainted, record the write key; when it merely
    depends on an enclosing parameter, register a [Db_write] conditional
    sink so the record still happens through summaries. *)
let check_db_write a ~pos ~is_method name args arg_ts =
  match a.c.opts.so_mode with
  | So_off -> ()
  | So_record | So_replay _ -> (
      match Config.find_db_write a.c.ix ~is_method name with
      | None -> ()
      | Some rw -> (
          let key = db_key rw args in
          let vals =
            match rw.Config.rw_val_args with
            | Some idxs -> List.filter_map (fun i -> List.nth_opt arg_ts i) idxs
            | None -> List.filteri (fun i _ -> i <> rw.Config.rw_key_arg) arg_ts
          in
          let joined = Taint.join_all vals in
          if Taint.is_tainted Vuln.Sqli joined then record_so_write a.c key
          else
            let deps = Taint.deps Vuln.Sqli joined in
            if not (Taint.Int_set.is_empty deps) then
              register_cond_sinks a deps
                { Summary.cs_param = 0; cs_kind = Vuln.Sqli;
                  cs_target = Summary.Db_write key; cs_pos = pos; cs_var = name;
                  cs_context = None; cs_sans = Taint.no_sans }))

(** DB-read endpoint in the replay phase: second-order taint flows out of
    the call when a matching write key was recorded by the record phase.
    A keyless read (["*"]) matches any recorded write; a keyed read
    matches its own key or a keyless write. *)
let so_read_taint a ~pos ~is_method ?disp name args =
  match a.c.opts.so_mode with
  | So_off | So_record -> Taint.untainted
  | So_replay keys -> (
      match Config.find_db_read a.c.ix ~is_method name with
      | None -> Taint.untainted
      | Some rw ->
          let rkey = db_key rw args in
          let matches =
            if String.equal rkey "*" then keys <> []
            else
              List.exists
                (fun k -> String.equal k rkey || String.equal k "*")
                keys
          in
          if matches then begin
            let disp = match disp with Some d -> d | None -> name in
            Obs.incr "phpsafe.so.reads_replayed";
            Taint.of_source
              ~kinds:[ Vuln.Second_order_sqli ]
              ~source:(Vuln.Database disp) ~pos
            |> Taint.push_step ~var:(disp ^ "()") ~pos
                 ~note:"attacker-stored data read back"
          end
          else Taint.untainted)

let lc = String.lowercase_ascii
let method_key cls m = lc cls ^ "::" ^ lc m

(* Structural equality of conditional sinks; sanitizer sets need their own
   equality (tree shapes differ for equal sets). *)
let cond_sink_same (a : Summary.cond_sink) (b : Summary.cond_sink) =
  a.Summary.cs_param = b.Summary.cs_param
  && a.Summary.cs_kind = b.Summary.cs_kind
  && a.Summary.cs_target = b.Summary.cs_target
  && a.Summary.cs_pos = b.Summary.cs_pos
  && String.equal a.Summary.cs_var b.Summary.cs_var
  && a.Summary.cs_context = b.Summary.cs_context
  && Taint.equal_sans a.Summary.cs_sans b.Summary.cs_sans

let dedup_cond_sinks css =
  List.fold_left
    (fun acc cs -> if List.exists (cond_sink_same cs) acc then acc else cs :: acc)
    [] css
  |> List.rev

(* walk the parent chain to find the class defining method [m] *)
let rec resolve_method ctx cls m =
  match Hashtbl.find_opt ctx.classes (lc cls) with
  | None -> None
  | Some cdef ->
      let has =
        List.exists
          (fun (md : Phplang.Ast.method_def) ->
            String.equal (lc md.Phplang.Ast.m_func.Phplang.Ast.f_name) (lc m))
          cdef.Phplang.Ast.c_methods
      in
      if has then Some cdef.Phplang.Ast.c_name
      else
        match cdef.Phplang.Ast.c_parent with
        | Some parent -> resolve_method ctx parent m
        | None -> None

(** The [--flow] join: per-variable {!Taint.join}.  Joining a state with
    itself returns it unchanged when every binding joins to itself, so a
    merge of unchanged states shares the map instead of rebuilding it. *)
let join_vars m1 m2 =
  if m1 == m2 && SMap.for_all (fun _ t -> Taint.join t t == t) m1 then m1
  else SMap.union (fun _ x y -> Some (Taint.join x y)) m1 m2

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                              *)
(* ------------------------------------------------------------------ *)

let rec eval a (e : Phplang.Ast.expr) : Taint.t =
  let pos = e.Phplang.Ast.epos in
  match e.Phplang.Ast.e with
  | Phplang.Ast.Var v -> (
      match Config.is_superglobal_source a.c.ix v with
      | Some kinds ->
          Taint.of_source ~kinds ~source:(Vuln.Superglobal v) ~pos
          |> Taint.push_step ~var:v ~pos ~note:"attacker-controlled input"
      | None -> Env.get a.env v)
  | Phplang.Ast.Prop (b, p) -> (
      match b.Phplang.Ast.e with
      | Phplang.Ast.Var "$this" -> (
          match Env.this_prop_key a.env p with
          | Some key -> Env.get_global_key a.env key
          | None -> Taint.untainted)
      | Phplang.Ast.Var v ->
          (* named property state joined with the object's own taint, so a
             row object fetched from the database taints its columns *)
          Taint.join (Env.get a.env (v ^ "->" ^ p)) (Env.get a.env v)
      | _ -> eval a b)
  | Phplang.Ast.StaticProp (cls, p) ->
      Env.get_global_key a.env (Env.static_prop_key cls p)
  | Phplang.Ast.Assign (lhs, rhs) ->
      let t = eval a rhs in
      propagate_class_binding a lhs rhs;
      assign_lval a lhs t;
      t
  | Phplang.Ast.AssignRef (lhs, rhs) -> (
      (* reference assignment (the behaviour Pixy's -A flag enables,
         §IV.B): variable-to-variable references share one cell; other
         reference shapes degrade to taint copies *)
      propagate_class_binding a lhs rhs;
      match (lhs.Phplang.Ast.e, rhs.Phplang.Ast.e) with
      | Phplang.Ast.Var l, Phplang.Ast.Var r ->
          Env.alias a.env l r;
          Env.get a.env r
      | _ ->
          let t = eval a rhs in
          assign_lval a lhs t;
          t)
  | Phplang.Ast.ListAssign (slots, rhs) ->
      let t = eval a rhs in
      List.iter (Option.iter (fun lhs -> assign_lval a lhs t)) slots;
      t
  | Phplang.Ast.OpAssign (op, lhs, rhs) ->
      let old = eval a lhs in
      let rhs_t = eval a rhs in
      let t =
        match op with
        | Phplang.Ast.Concat -> Taint.join old rhs_t
        | _ -> Taint.scrub rhs_t  (* arithmetic result *)
      in
      assign_lval a lhs t;
      t
  | Phplang.Ast.PrintE x ->
      ignore (check_sink a ~pos ~targets:[ (Vuln.Xss, "print") ] x);
      Taint.untainted
  | Phplang.Ast.Exit arg ->
      Option.iter
        (fun x -> ignore (check_sink a ~pos ~targets:[ (Vuln.Xss, "exit") ] x))
        arg;
      Taint.untainted
  | Phplang.Ast.IncludeE (_, arg) ->
      exec_include a arg;
      Taint.untainted
  | Phplang.Ast.Closure cl ->
      analyze_closure a cl;
      Taint.untainted
  | Phplang.Ast.Call (fname, args) -> eval_call a ~pos fname args
  | Phplang.Ast.MethodCall (obj, m, args) -> eval_method_call a ~pos obj m args
  | Phplang.Ast.StaticCall (cls, m, args) -> (
      let arg_ts = List.map (eval a) args in
      match resolve_method a.c cls m with
      | Some owner ->
          call_user_function a ~pos (method_key owner m) arg_ts args
      | None -> Taint.untainted)
  | Phplang.Ast.New (cls, args) -> (
      let arg_ts = List.map (eval a) args in
      match resolve_method a.c cls "__construct" with
      | Some owner ->
          ignore (call_user_function a ~pos (method_key owner "__construct") arg_ts args);
          Taint.untainted
      | None -> Taint.untainted)
  | _ ->
      (* an operator: {!Phplang.Ast.value_flow} says what carries its value *)
      Phplang.Ast.flow_value ~clean:Taint.untainted ~join:Taint.join ~eval
        ~effect:eval a e

(* The sink check every sink site calls: evaluate argument [e] hole by
   hole and check each hole against every (kind, sink name) target, left
   to right.  Under --contexts the holes are [Strshape.pieces] (each
   dynamic hole evaluated exactly once — [pieces] only decomposes
   side-effect-free literal structure), each with the output context
   inferred from the constant text before it; in the published mode the
   whole argument is one hole with no context.  A tainted hole is reported
   when {!reportable} says so; a parameter-dependent one registers
   conditional sinks carrying its context and sanitizer set.  Returns the
   joined taint of the whole argument, so callers use this INSTEAD of
   [eval] on the sink argument. *)
and check_sink a ~pos ~targets (e : Phplang.Ast.expr) : Taint.t =
  let targets =
    List.concat_map
      (fun (kind, sink_name) ->
        List.map (fun k -> (k, sink_name)) (sink_check_kinds a kind))
      targets
  in
  let holes =
    if ctx_on a then Phplang.Strshape.pieces e else [ Phplang.Strshape.Dyn e ]
  in
  (* [lits]: the constant text before the current hole, latest first *)
  let _, t =
    List.fold_left
      (fun (lits, acc) -> function
        | Phplang.Strshape.Lit s -> (s :: lits, acc)
        | Phplang.Strshape.Dyn sub ->
            let t = eval a sub in
            let var = Phplang.Ast.name_of_expr sub in
            (* inferred only for a hole that can report or register a
               conditional sink; [infer_context] is pure *)
            let context kind =
              if ctx_on a then
                Some (infer_context kind (String.concat "" (List.rev lits)))
              else None
            in
            List.iter
              (fun (kind, sink_name) ->
                if Taint.is_tainted kind t then begin
                  let context = context kind in
                  if reportable a.c.ix kind context t then
                    report a ?context ~kind ~pos ~sink_name ~var t
                end
                else
                  let deps = Taint.deps kind t in
                  if not (Taint.Int_set.is_empty deps) then
                    register_cond_sinks a deps
                      { Summary.cs_param = 0; cs_kind = kind;
                        cs_target = Summary.Report sink_name; cs_pos = pos;
                        cs_var = var; cs_context = context kind;
                        cs_sans = t.Taint.sans })
              targets;
            (lits, Taint.join acc t))
      ([], Taint.untainted) holes
  in
  t

(* One call argument: checked against the entries of [sinks] that apply to
   it, or plainly evaluated when none does. *)
and eval_sink_arg a ~pos ~sink_name sinks ~args (e : Phplang.Ast.expr) =
  match sinks with
  | [] -> eval a e
  | _ -> (
      match
        List.filter_map
          (fun (snk : Config.sink_entry) ->
            if sink_applies snk ~args ~arg:e then
              Some (snk.Config.snk_kind, sink_name)
            else None)
          sinks
      with
      | [] -> eval a e
      | targets -> check_sink a ~pos ~targets e)

and propagate_class_binding a lhs rhs =
  match (lhs.Phplang.Ast.e, rhs.Phplang.Ast.e) with
  | Phplang.Ast.Var v, Phplang.Ast.New (cls, _) -> Env.bind_class a.env v cls
  | Phplang.Ast.Var v, Phplang.Ast.Var w -> (
      match Env.class_binding a.env w with
      | Some cls -> Env.bind_class a.env v cls
      | None -> ())
  | _ -> ()

and assign_lval a (lhs : Phplang.Ast.expr) (taint : Taint.t) =
  let pos = lhs.Phplang.Ast.epos in
  match lhs.Phplang.Ast.e with
  | Phplang.Ast.Var v ->
      let taint =
        if Taint.interesting taint then
          Taint.push_step taint ~var:v ~pos ~note:"assigned"
        else taint
      in
      Env.set a.env v taint
  | Phplang.Ast.ArrayGet (b, idx) ->
      Option.iter (fun i -> ignore (eval a i)) idx;
      assign_lval_join a b taint
  | Phplang.Ast.Prop ({ Phplang.Ast.e = Phplang.Ast.Var "$this"; _ }, p) -> (
      match Env.this_prop_key a.env p with
      | Some key -> Env.set_global_key_join a.env key taint
      | None -> ())
  | Phplang.Ast.Prop ({ Phplang.Ast.e = Phplang.Ast.Var v; _ }, p) ->
      Env.set a.env (v ^ "->" ^ p) taint
  | Phplang.Ast.StaticProp (cls, p) ->
      Env.set_global_key a.env (Env.static_prop_key cls p) taint
  | _ -> ()

(* assigning through an array slot joins into the base variable *)
and assign_lval_join a (lhs : Phplang.Ast.expr) taint =
  match lhs.Phplang.Ast.e with
  | Phplang.Ast.Var v -> Env.set_join a.env v taint
  | Phplang.Ast.ArrayGet (b, _) -> assign_lval_join a b taint
  | Phplang.Ast.Prop ({ Phplang.Ast.e = Phplang.Ast.Var "$this"; _ }, p) -> (
      match Env.this_prop_key a.env p with
      | Some key -> Env.set_global_key_join a.env key taint
      | None -> ())
  | Phplang.Ast.Prop ({ Phplang.Ast.e = Phplang.Ast.Var v; _ }, p) ->
      Env.set_join a.env (v ^ "->" ^ p) taint
  | _ -> ()

and eval_call a ~pos fname args =
  let ix = a.c.ix in
  (* 1. sink roles: each argument evaluated, then checked *)
  let arg_ts =
    List.map
      (eval_sink_arg a ~pos ~sink_name:fname (Config.find_sinks ix fname) ~args)
      args
  in
  check_db_write a ~pos ~is_method:false fname args arg_ts;
  let so_t = so_read_taint a ~pos ~is_method:false fname args in
  let arg0 () =
    match arg_ts with t :: _ -> t | [] -> Taint.untainted
  in
  let arg0_name () =
    match args with e :: _ -> Phplang.Ast.name_of_expr e | [] -> "<none>"
  in
  (* 2. value roles, in priority order *)
  let t =
  match Config.find_sanitizer ix fname with
  | Some san ->
      let t =
        if ctx_on a then
          (* keep the live bits; the verdict happens at the sink *)
          Taint.record_sanitizer ~name:fname san.Config.san_kinds (arg0 ())
        else Taint.sanitize_kinds san.Config.san_kinds (arg0 ())
      in
      if Taint.interesting t || Taint.any_was t then
        Taint.push_step t ~var:(arg0_name ()) ~pos
          ~note:(Printf.sprintf "filtered by %s" fname)
      else t
  | None ->
      if Config.is_revert ix fname then
        let t =
          if ctx_on a then
            Taint.revert_named
              ~undoes:(Config.revert_undoes fname)
              (arg0 ())
          else Taint.revert (arg0 ())
        in
        if Taint.interesting t then
          Taint.push_step t ~var:(arg0_name ()) ~pos
            ~note:(Printf.sprintf "sanitization reverted by %s" fname)
        else t
      else (
        match Config.find_function_source ix fname with
        | Some src ->
            Taint.of_source ~kinds:src.Config.src_kinds
              ~source:src.Config.src_desc ~pos
            |> Taint.push_step ~var:(fname ^ "()") ~pos
                 ~note:"untrusted data returned"
        | None ->
            if Config.is_passthrough ix fname then arg0 ()
            else if Config.is_concat_all ix fname then
              Taint.join_all arg_ts
            else (
              match Hashtbl.find_opt a.c.funcs (lc fname) with
              | Some _ -> call_user_function a ~pos (lc fname) arg_ts args
              | None -> Taint.untainted))
  in
  if Taint.interesting so_t then Taint.join t so_t else t

and eval_method_call a ~pos obj m args =
  let ix = a.c.ix in
  ignore (eval a obj);
  let full_name obj_name = obj_name ^ "->" ^ m in
  let obj_name = Phplang.Ast.name_of_expr obj in
  (* user-defined class methods resolve through the object's binding *)
  let user_class =
    match obj.Phplang.Ast.e with
    | Phplang.Ast.Var v -> (
        match Env.class_binding a.env v with
        | Some cls -> resolve_method a.c cls m
        | None -> None)
    | _ -> None
  in
  let msinks =
    match user_class with
    | Some _ -> []
    | None -> Config.find_method_sinks ix m
  in
  (* method sinks check their first (query) argument *)
  let arg_ts =
    match (args, msinks) with
    | e :: rest, _ :: _ ->
        let t =
          eval_sink_arg a ~pos ~sink_name:(full_name obj_name) msinks ~args e
        in
        t :: List.map (eval a) rest
    | _ -> List.map (eval a) args
  in
  let arg0 () = match arg_ts with t :: _ -> t | [] -> Taint.untainted in
  match user_class with
  | Some owner -> call_user_function a ~pos (method_key owner m) arg_ts args
  | None ->
      (* configuration-known methods ($wpdb family): sink, sanitizer,
         source — plus the second-order DB write/read endpoints *)
      check_db_write a ~pos ~is_method:true m args arg_ts;
      let so_t =
        so_read_taint a ~pos ~is_method:true ~disp:(full_name obj_name) m args
      in
      let t =
        match Config.find_method_sanitizer ix m with
        | Some san ->
            if ctx_on a then
              Taint.record_sanitizer ~name:m san.Config.san_kinds (arg0 ())
            else Taint.sanitize_kinds san.Config.san_kinds (arg0 ())
        | None -> (
            match Config.find_method_source ix m with
            | Some src ->
                Taint.of_source ~kinds:src.Config.src_kinds
                  ~source:src.Config.src_desc ~pos
                |> Taint.push_step ~var:(full_name obj_name ^ "()") ~pos
                     ~note:"untrusted data returned"
            | None -> Taint.untainted)
      in
      if Taint.interesting so_t then Taint.join t so_t else t

and call_user_function a ~pos key arg_ts arg_exprs =
  match Hashtbl.find_opt a.c.funcs key with
  | None -> Taint.untainted
  | Some fi ->
      let summary =
        match Hashtbl.find_opt a.c.summaries key with
        | Some s -> Some s
        | None ->
            if Hashtbl.mem a.c.in_progress key then None (* recursion cut *)
            else Some (analyze_function a.c fi)
      in
      (match summary with
      | None -> Taint.untainted
      | Some summary ->
          (* fire conditional sinks with the actual argument taints *)
          List.iter
            (fun action ->
              match action with
              | `Fire ((cs : Summary.cond_sink), (arg_taint : Taint.t)) -> (
                  match cs.Summary.cs_target with
                  | Summary.Db_write key ->
                      (* fired with SQL-tainted data: record the write key *)
                      record_so_write a.c key
                  | Summary.Report sink_name ->
                      (* replay the callee's sanitizer delta on the argument and
                         take the direct sink's verdict in the context inferred
                         at the callee's sink *)
                      let arg_taint =
                        { arg_taint with
                          Taint.sans =
                            Taint.compose_sans ~outer:arg_taint.Taint.sans
                              ~inner:cs.Summary.cs_sans }
                      in
                      if
                        reportable a.c.ix cs.Summary.cs_kind
                          cs.Summary.cs_context arg_taint
                      then begin
                        let arg_var =
                          match List.nth_opt arg_exprs cs.Summary.cs_param with
                          | Some e -> Phplang.Ast.name_of_expr e
                          | None -> "<arg>"
                        in
                        let t =
                          Taint.push_step arg_taint ~var:arg_var ~pos
                            ~note:
                              (Printf.sprintf "passed to %s (parameter %d)" key
                                 (cs.Summary.cs_param + 1))
                        in
                        report a ?context:cs.Summary.cs_context
                          ~kind:cs.Summary.cs_kind ~pos:cs.Summary.cs_pos
                          ~sink_name ~var:cs.Summary.cs_var t
                      end)
              | `Hoist (cs : Summary.cond_sink) ->
                  register_cond_sinks a
                    (Taint.Int_set.singleton cs.Summary.cs_param)
                    cs)
            (Summary.fire_cond_sinks summary arg_ts);
          Summary.instantiate_return summary arg_ts)

and analyze_closure a (cl : Phplang.Ast.closure) =
  (* closures are WordPress hook callbacks: analyze as an entry point with
     the captured variables' current taint *)
  let env = Env.create_scope ?current_class:a.env.Env.current_class a.c.globals in
  List.iter
    (fun (v, _by_ref) -> Env.set env v (Env.get a.env v))
    cl.Phplang.Ast.cl_uses;
  List.iter
    (fun (p : Phplang.Ast.param) -> Env.set env p.Phplang.Ast.p_name Taint.untainted)
    cl.Phplang.Ast.cl_params;
  let sub = { a with env; frame = None } in
  exec_body sub cl.Phplang.Ast.cl_body

(* Walk [fi]'s body once with symbolic parameters and memoise the summary
   in [c.summaries], which lasts one run (§III.C: "a function is parsed
   only once; the summary of this analysis is reused in subsequent
   calls"). *)
and analyze_function (c : ctx) (fi : func_info) : Summary.t =
  Obs.incr "phpsafe.summaries.built";
  Hashtbl.replace c.in_progress fi.fi_key ();
  let env = Env.create_scope ?current_class:fi.fi_class c.globals in
  List.iteri
    (fun i (p : Phplang.Ast.param) ->
      Env.set env p.Phplang.Ast.p_name (Taint.of_param i))
    fi.fi_func.Phplang.Ast.f_params;
  let frame = { fr_ret = Taint.untainted; fr_csinks = [] } in
  let a = { c; env; frame = Some frame; file = fi.fi_file } in
  exec_body a fi.fi_func.Phplang.Ast.f_body;
  let cond_sinks = List.rev frame.fr_csinks in
  let cond_sinks =
    (* flow mode replays the body once per fixpoint pass, registering the
       same conditional sinks repeatedly; keep the first of each *)
    if c.opts.flow_sensitive then dedup_cond_sinks cond_sinks else cond_sinks
  in
  let summary = { Summary.ret = frame.fr_ret; cond_sinks } in
  Hashtbl.remove c.in_progress fi.fi_key;
  Hashtbl.replace c.summaries fi.fi_key summary;
  summary

and exec_include a (arg : Phplang.Ast.expr) =
  (* a dynamic include path is the classic LFI sink: check the argument
     against the configured [include] sink entries (paper-class path
     traversal; a string literal resolves statically and is safe) *)
  let check_dynamic () =
    ignore
      (eval_sink_arg a ~pos:arg.Phplang.Ast.epos ~sink_name:"include"
         (Config.find_sinks a.c.ix "include")
         ~args:[ arg ] arg)
  in
  match arg.Phplang.Ast.e with
  | _ when not a.c.opts.resolve_includes -> check_dynamic ()
  | Phplang.Ast.Str path when not (S.mem path a.c.include_stack) ->
      a.c.include_stack <- S.add path a.c.include_stack;
      (match Hashtbl.find_opt a.c.parsed path with
      | Some prog ->
          let sub = { a with file = path } in
          List.iter (exec_stmt sub) prog
      | None -> () (* WordPress core file or missing: skip, like the tools *));
      (* flow mode re-executes the include on every fixpoint pass so its
         effects stay part of the ascending state; flat mode keeps the
         once-per-entry semantics (the stack doubles as the cycle cut
         within one pass either way) *)
      if a.c.opts.flow_sensitive then
        a.c.include_stack <- S.remove path a.c.include_stack
  | Phplang.Ast.Str _ -> ()
  | _ -> check_dynamic ()

(* Body roots (file entries, function and closure bodies) go through here:
   one straight-line pass in the published phpSAFE, a CFG fixpoint under
   [--flow]. *)
and exec_body a (stmts : Phplang.Ast.stmt list) =
  if a.c.opts.flow_sensitive then exec_body_flow a stmts
  else List.iter (exec_stmt a) stmts

(* Flow-sensitive walk: the abstract state is the persistent map in the
   scope's local table (at top level, the shared global table), joined per
   variable at CFG merge points, so a sanitizer applied on one branch is
   killed at the join when the other branch kept the taint, and a loop
   back-edge re-generates taint assigned after a sink.  Taking a snapshot
   reads the table's cell and restoring one writes it, so a statement
   costs what it changes, not the size of the scope.

   The transfer function is the ordinary [exec_stmt] walk, replayed every
   pass, so its side effects need the usual fixpoint discipline:
   - findings de-duplicate through [report]'s occurrence set, and states
     only ascend (taint bits grow, applied-sanitizer sets shrink), so a
     finding emitted on an early pass is also justified by the final
     states;
   - conditional sinks accumulated in the frame are de-duplicated when the
     summary is built ({!analyze_function});
   - [fr_ret] joins monotonically across passes.
   A walk that runs out of passes keeps its findings and marks [a.file] —
   the entry file, or the file defining the function being summarised —
   budget-exhausted.

   The solver stops after a pass that changed no back-edge source and left
   the [effects] counter still ({!Dataflow.Fixpoint}), since the next pass
   would replay it.  The counter sums the scope's binding changes ([global],
   [=&], class bindings, [unset]) and the writes function and closure
   scopes made into the global table: this walk's own, when it is one,
   and a callee's, including those of the first call's summary build,
   which a later pass does not repeat.  At top level the global table is
   the solved cell, so the top-level scope's own writes are state and do
   not count.  The other effects of a pass are safe to skip replaying:
   - a summary stored in [c.summaries] is the value that pass used, and a
     later pass would read it back;
   - findings and conditional sinks are de-duplicated, so a replay adds
     none;
   - [fr_ret] and [so_writes] only join or add, and nothing in the walk
     reads them;
   - the include stack is balanced per include, and [in_progress] per
     summary build. *)
and exec_body_flow a stmts =
  let module F = Dataflow.Fixpoint in
  let cfg = Dataflow.Cfg.build stmts in
  let cell = a.env.Env.locals in
  let res =
    F.solve ~check:Deadline.check
      {
        F.init = cell.Env.vars;
        bottom = SMap.empty;
        join = join_vars;
        equal = SMap.equal Taint.equal_modulo_trace;
        transfer =
          (fun st s ->
            cell.Env.vars <- st;
            exec_stmt a s;
            cell.Env.vars);
        effects = (fun () -> a.env.Env.changes + a.env.Env.globals.Env.writes);
        max_passes = (Budget.get ()).Budget.fixpoint_passes;
      }
      cfg
  in
  Obs.incr "phpsafe.flow.solves";
  Obs.add "phpsafe.flow.passes" res.F.passes;
  if not res.F.converged then begin
    Obs.incr "phpsafe.flow.exhausted";
    record_exhausted a.c a.file
  end;
  cell.Env.vars <- res.F.exit_state

and exec_stmt a (s : Phplang.Ast.stmt) =
  match s.Phplang.Ast.s with
  | Phplang.Ast.Expr e -> ignore (eval a e)
  | Phplang.Ast.Echo es ->
      List.iter
        (fun e ->
          ignore
            (check_sink a ~pos:e.Phplang.Ast.epos
               ~targets:[ (Vuln.Xss, "echo") ] e))
        es
  | Phplang.Ast.If (branches, els) ->
      (* §III.C: "Conditions and loops do not change the data flow. Only the
         values of the variables involved are processed and updated. Also,
         the blocks of code are parsed normally." *)
      List.iter
        (fun (cond, body) ->
          ignore (eval a cond);
          List.iter (exec_stmt a) body)
        branches;
      Option.iter (List.iter (exec_stmt a)) els;
      if a.c.opts.respect_guards then apply_termination_guards a branches els
  | Phplang.Ast.While (cond, body) ->
      ignore (eval a cond);
      List.iter (exec_stmt a) body
  | Phplang.Ast.DoWhile (body, cond) ->
      List.iter (exec_stmt a) body;
      ignore (eval a cond)
  | Phplang.Ast.For (init, cond, update, body) ->
      List.iter (fun e -> ignore (eval a e)) init;
      List.iter (fun e -> ignore (eval a e)) cond;
      List.iter (exec_stmt a) body;
      List.iter (fun e -> ignore (eval a e)) update
  | Phplang.Ast.Foreach (subject, binding, body) ->
      let t = eval a subject in
      (match binding with
      | Phplang.Ast.ForeachValue v -> assign_lval a v t
      | Phplang.Ast.ForeachKeyValue (k, v) ->
          assign_lval a k t;
          assign_lval a v t);
      List.iter (exec_stmt a) body
  | Phplang.Ast.Switch (subject, cases) ->
      ignore (eval a subject);
      List.iter
        (fun (c : Phplang.Ast.case) ->
          Option.iter (fun g -> ignore (eval a g)) c.Phplang.Ast.case_guard;
          List.iter (exec_stmt a) c.Phplang.Ast.case_body)
        cases
  | Phplang.Ast.Return e -> (
      let t = match e with Some e -> eval a e | None -> Taint.untainted in
      match a.frame with
      | Some frame -> frame.fr_ret <- Taint.join frame.fr_ret t
      | None -> ())
  | Phplang.Ast.Global names -> List.iter (Env.declare_global a.env) names
  | Phplang.Ast.StaticVar vars ->
      List.iter
        (fun (v, init) ->
          let t = match init with Some e -> eval a e | None -> Taint.untainted in
          Env.set a.env v t)
        vars
  | Phplang.Ast.Unset es ->
      (* §III.C T_UNSET: "the properties of the variable are updated as
         untainted and marked as non-vulnerable" *)
      List.iter
        (fun e ->
          match e.Phplang.Ast.e with
          | Phplang.Ast.Var v -> Env.unset a.env v
          | _ -> ())
        es
  | Phplang.Ast.Block body -> List.iter (exec_stmt a) body
  | Phplang.Ast.FuncDef _ | Phplang.Ast.ClassDef _ ->
      () (* hoisted during model construction *)
  | Phplang.Ast.InlineHtml _ | Phplang.Ast.Nop | Phplang.Ast.Break
  | Phplang.Ast.Continue ->
      ()
  | Phplang.Ast.Throw e -> ignore (eval a e)
  | Phplang.Ast.TryCatch (body, catches) ->
      List.iter (exec_stmt a) body;
      List.iter
        (fun (c : Phplang.Ast.catch) ->
          Env.set a.env c.Phplang.Ast.catch_var Taint.untainted;
          List.iter (exec_stmt a) c.Phplang.Ast.catch_body)
        catches

(* [respect_guards] extension: after
   [if (!guard($x)) { ...exit/return/throw... }] with no else, execution can
   only continue when [guard($x)] held, so [$x] is validated. *)
and apply_termination_guards a branches els =
  match (branches, els) with
  | [ (cond, body) ], None when block_terminates body -> (
      match cond.Phplang.Ast.e with
      | Phplang.Ast.Un
          (Phplang.Ast.Not,
           { Phplang.Ast.e =
               Phplang.Ast.Call (g, [ { Phplang.Ast.e = Phplang.Ast.Var v; _ } ]);
             _ })
        when List.mem (lc g) guard_functions ->
          Env.set a.env v
            (Taint.sanitize_kinds Vuln.all_kinds (Env.get a.env v))
      | _ -> ())
  | _ -> ()

and block_terminates (body : Phplang.Ast.stmt list) =
  List.exists
    (fun (s : Phplang.Ast.stmt) ->
      match s.Phplang.Ast.s with
      | Phplang.Ast.Return _ | Phplang.Ast.Throw _ -> true
      | Phplang.Ast.Expr { Phplang.Ast.e = Phplang.Ast.Exit _; _ } -> true
      | _ -> false)
    body

(* ------------------------------------------------------------------ *)
(* Model construction (paper §III.B)                                  *)
(* ------------------------------------------------------------------ *)

let register_func ctx ~file key fi_func fi_class =
  if not (Hashtbl.mem ctx.funcs key) then
    Hashtbl.replace ctx.funcs key
      { fi_key = key; fi_func; fi_class; fi_file = file }

(* Register one of a file's definitions ({!Phplang.Project.facts}'s
   [defs]: functions and classes from any nesting, class bodies included,
   but not from closure bodies); the first definition of a name wins. *)
let register_def ctx ~file (s : Phplang.Ast.stmt) =
  match s.Phplang.Ast.s with
  | Phplang.Ast.FuncDef f ->
      register_func ctx ~file (lc f.Phplang.Ast.f_name) f None
  | Phplang.Ast.ClassDef cls ->
      let name = cls.Phplang.Ast.c_name in
      if not (Hashtbl.mem ctx.classes (lc name)) then
        Hashtbl.replace ctx.classes (lc name) cls;
      List.iter
        (fun (m : Phplang.Ast.method_def) ->
          let f = m.Phplang.Ast.m_func in
          register_func ctx ~file (method_key name f.Phplang.Ast.f_name) f
            (Some name))
        cls.Phplang.Ast.c_methods
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Project driver                                                     *)
(* ------------------------------------------------------------------ *)

let analyze_project_internal ?(opts = default_options)
    (project : Phplang.Project.t) : Report.result * string list =
  (* stage 1 (§III.A): configuration — the run context carrying the sink/
     source/sanitizer model and its role index.  The index is built here
     per run rather than kept in [Config.t], which stays plain data. *)
  let ctx =
    Obs.span "phpsafe.config" @@ fun () ->
    {
      opts;
      ix = Config.index opts.config;
      parsed = Hashtbl.create 64;
      funcs = Hashtbl.create 128;
      classes = Hashtbl.create 32;
      summaries = Hashtbl.create 128;
      in_progress = Hashtbl.create 8;
      globals = Env.table ();
      findings = [];
      reported = Report.Occurrence_set.empty;
      include_stack = S.empty;
      errors = 0;
      so_writes = S.empty;
      exhausted = S.empty;
    }
  in
  let outcomes = ref [] in
  let unresolved = ref S.empty in
  (* stage 2 (§III.B): model construction — parse everything, check the
     include budget, hoist the function/class registry *)
  let analyzable =
    Obs.span "phpsafe.model" @@ fun () ->
    let parse_ok = ref [] in
    (* the memo entries the budget reads facts from: a path's LOC is its
       first file's ([Project.find]'s), its include targets are those of
       the parse [ctx.parsed] holds *)
    let first_entry = Hashtbl.create 64 and ok_entry = Hashtbl.create 64 in
    List.iter
      (fun (f : Phplang.Project.file) ->
        let path = f.Phplang.Project.path in
        let entry = Phplang.Project.parse f in
        if not (Hashtbl.mem first_entry path) then
          Hashtbl.add first_entry path entry;
        match Phplang.Project.result entry with
        | Ok prog ->
            Hashtbl.replace ctx.parsed path prog;
            Hashtbl.replace ok_entry path entry;
            parse_ok := path :: !parse_ok
        | Error err ->
            ctx.errors <- ctx.errors + 1;
            let reason =
              match err with
              | Phplang.Project.Syntax msg -> Report.Parse_failure msg
              | Phplang.Project.Over_budget msg -> Report.Budget_exhausted msg
            in
            outcomes :=
              (f.Phplang.Project.path, Report.fail reason) :: !outcomes)
      project.Phplang.Project.files;
    let parse_ok = List.rev !parse_ok in
    (* memory budget: files whose include closure is too expensive fail.
       Closures are built only here, so none is built when include
       resolution or the budget is off. *)
    let failed_mem = Hashtbl.create 4 in
    (match (if opts.resolve_includes then opts.budget else None) with
    | None -> ()
    | Some budget ->
        let safety = Budget.get () in
        let targets (f : Phplang.Project.file) =
          match Hashtbl.find_opt ok_entry f.Phplang.Project.path with
          | Some e -> (Phplang.Project.facts e).Phplang.Project.includes
          | None -> []
        in
        List.iter
          (fun path ->
            let closure =
              Phplang.Project.include_closure
                ~max_depth:safety.Budget.include_depth
                ~max_files:safety.Budget.include_files ~targets project path
            in
            let closure_loc =
              List.fold_left
                (fun acc p ->
                  match Hashtbl.find_opt first_entry p with
                  | Some e -> acc + (Phplang.Project.facts e).Phplang.Project.loc
                  | None ->
                      unresolved := S.add p !unresolved;
                      acc)
                0 closure.Phplang.Project.cl_paths
            in
            if closure.Phplang.Project.cl_truncated then begin
              (* the safety cap fired before the paper's modeling budget
                 could even be measured — a budget exhaustion, not the
                 paper's out-of-memory behaviour *)
              Obs.incr "phpsafe.files.failed_budget";
              Hashtbl.replace failed_mem path ();
              outcomes :=
                (path,
                 Report.fail
                   (Report.Budget_exhausted
                      "include closure exceeds the depth/size safety cap"))
                :: !outcomes
            end
            else if closure.Phplang.Project.cl_max_depth
                    > budget.max_include_depth
                    || closure_loc > budget.max_closure_loc
            then begin
              Obs.incr "phpsafe.files.failed_budget";
              Hashtbl.replace failed_mem path ();
              outcomes := (path, Report.fail Report.Out_of_memory) :: !outcomes
            end)
          parse_ok);
    let analyzable =
      List.filter (fun p -> not (Hashtbl.mem failed_mem p)) parse_ok
    in
    (* registry (hoisting): functions and classes from analyzable files,
       in file order, from the definitions the memo keeps per parse *)
    List.iter
      (fun path ->
        List.iter (register_def ctx ~file:path)
          (Phplang.Project.facts (Hashtbl.find ok_entry path))
            .Phplang.Project.defs)
      analyzable;
    analyzable
  in
  (* crash barrier: an exception escaping the taint walk poisons only the
     file that triggered it, never the project run *)
  let mark_file_crashed path msg =
    ctx.errors <- ctx.errors + 1;
    Obs.incr "phpsafe.files.crashed";
    match List.assoc_opt path !outcomes with
    | Some (Report.Failed _) -> ()
    | Some Report.Analyzed | None ->
        let outcome = Report.fail (Report.Crashed msg) in
        if List.mem_assoc path !outcomes then
          outcomes :=
            List.map
              (fun (p, o) -> if String.equal p path then (p, outcome) else (p, o))
              !outcomes
        else outcomes := (path, outcome) :: !outcomes
  in
  (* stage 3 (§III.C): inter-procedural analysis from each file's "main
     function", then uncalled functions as entry points *)
  Obs.span "phpsafe.analysis" (fun () ->
      List.iter
        (fun path ->
          (* file boundary: a per-request deadline cancels between files *)
          Deadline.check ();
          ctx.include_stack <- S.singleton path;
          let env = Env.create_toplevel ctx.globals in
          let a = { c = ctx; env; frame = None; file = path } in
          match exec_body a (Hashtbl.find ctx.parsed path) with
          | () -> outcomes := (path, Report.Analyzed) :: !outcomes
          | exception (Deadline.Exceeded as e) -> raise e
          | exception exn -> mark_file_crashed path (Printexc.to_string exn))
        analyzable;
      if opts.analyze_uncalled then
        Hashtbl.fold
          (fun key fi acc ->
            if Hashtbl.mem ctx.summaries key then acc else (key, fi) :: acc)
          ctx.funcs []
        |> List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2)
        |> List.iter (fun (_, fi) ->
               Deadline.check ();
               match analyze_function ctx fi with
               | _ -> ()
               | exception (Deadline.Exceeded as e) -> raise e
               | exception exn ->
                   mark_file_crashed fi.fi_file (Printexc.to_string exn)));
  (* stage 4 (§III.D): results *)
  Obs.span "phpsafe.results" @@ fun () ->
  (* a file whose [--flow] fixpoint ran out keeps its findings but reports
     the exhausted pass budget, as Pixy does *)
  let outcomes =
    List.rev_map
      (fun (path, o) ->
        match o with
        | Report.Analyzed when S.mem path ctx.exhausted ->
            ctx.errors <- ctx.errors + 1;
            ( path,
              Report.fail
                (Report.Budget_exhausted
                   "dataflow fixpoint pass budget exhausted") )
        | o -> (path, o))
      !outcomes
  in
  ( {
      Report.findings = List.rev ctx.findings;
      outcomes;
      errors = ctx.errors;
      unresolved_includes = S.cardinal !unresolved;
    },
    S.elements ctx.so_writes )

let analyze_project ?opts project = fst (analyze_project_internal ?opts project)

(** Two-phase second-order SQL-injection analysis (E16).  Phase 1 walks the
    project in [So_record] mode, collecting the DB-write keys reached by
    SQL-tainted data; when any were recorded, phase 2 re-walks it in
    [So_replay] mode with matching DB reads acting as tainted sources.  A
    project with no tainted writes gets the single-phase result (and
    cost). *)
let analyze_project_so ?(opts = default_options) (project : Phplang.Project.t)
    : Report.result =
  let r1, keys =
    analyze_project_internal ~opts:{ opts with so_mode = So_record } project
  in
  if keys = [] then r1
  else begin
    Obs.incr "phpsafe.so.replay_runs";
    analyze_project ~opts:{ opts with so_mode = So_replay keys } project
  end

(** Does nothing; kept only for [perfbench/]. *)
let set_dag_tracking (_ : bool) = ()
