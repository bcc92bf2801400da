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
    of memory". *)
let default_budget = { max_include_depth = 6; max_closure_loc = 40_000 }

(** Second-order analysis phase ({!analyze_project_so}).  Data-only so the
    whole [options] record stays digestible for the cache fingerprints —
    a replay with different keys is a different fingerprint. *)
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
  restrict_kinds : Vuln.kind list option;
      (** [--kinds] restriction: report only these vulnerability classes
          ([None] = all).  Applied at the reporting gate, so the data-flow
          walk itself is unchanged. *)
}

let default_options =
  { config = Wordpress.default_config;
    budget = Some default_budget;
    analyze_uncalled = true;
    resolve_includes = true;
    respect_guards = false;
    infer_contexts = false;
    flow_sensitive = false;
    so_mode = So_off;
    restrict_kinds = None }

(** Numeric/type guard functions whose failure developers use to abort the
    request; recognised only under [respect_guards]. *)
let guard_functions = [ "is_numeric"; "ctype_digit"; "is_int"; "ctype_alnum" ]

type func_info = {
  fi_key : string;            (** lowercase "name" or "class::name" *)
  fi_func : Phplang.Ast.func;
  fi_class : string option;
  fi_file : string;
}

(* ------------------------------------------------------------------ *)
(* Incremental analysis cache (see DESIGN.md "Incremental analysis")  *)
(* ------------------------------------------------------------------ *)

(** Per-function metadata for the summary cache. *)
type fmeta = {
  fm_digest : string;  (** structural digest of the function body (incl. positions) *)
  fm_callees : string list;  (** lowercase names of called user functions *)
  fm_pure : bool;
      (** body free of anything that couples it to state outside its
          parameters and the configuration: no [global], no property or
          static-property access, no method calls / [new] / static calls,
          no closures, no includes.  Only pure functions (transitively)
          have cacheable summaries. *)
  mutable fm_key : string option option;
      (** memoized summary-cache key; [Some None] = not cacheable *)
}

(** Per-run state of the incremental cache, present only when a
    {!Phplang.Store} root is configured. *)
type icache = {
  ic_file_fp : string;  (** fingerprint for per-file result entries *)
  ic_sum_fp : string;   (** fingerprint for summary entries *)
  ic_meta : (string, fmeta) Hashtbl.t;  (** function key -> metadata *)
  ic_cacheable : (string, bool) Hashtbl.t;  (** transitive purity memo *)
}

type ctx = {
  opts : options;
  ix : Config.index;  (** [opts.config]'s role lookups, built in stage 1 *)
  project : Phplang.Project.t;
  parsed : (string, Phplang.Ast.program) Hashtbl.t;
  funcs : (string, func_info) Hashtbl.t;
  classes : (string, Phplang.Ast.cls) Hashtbl.t;
  summaries : (string, Summary.t) Hashtbl.t;
  in_progress : (string, unit) Hashtbl.t;
  globals : Env.table;
  mutable findings : Report.finding list;
  mutable reported : Report.Occurrence_set.t;
  mutable emitted : Report.finding list;
      (** findings reported before de-duplication while a {!journaled}
          walk runs, newest first *)
  mutable jseen : Report.Occurrence_set.t option;
      (** occurrences already in [emitted] for the innermost running
          journal; [None] when no journal runs *)
  mutable include_stack : S.t;  (** include cycle cut, per entry run *)
  mutable errors : int;
  mutable sum_log : (string * string option * Summary.t) list;
      (** summaries published or replayed, newest first, each with its
          {!summary_key} — {!journaled} attributes nested summary work to
          the walk that caused it *)
  deferred : (string, string option * Summary.t) Hashtbl.t;
      (** summaries that replayed journals recorded, not yet published:
          the uncalled stage counts them as called, and a live call
          publishes one only if its summary key still matches *)
  mutable so_writes : S.t;
      (** DB-write keys reached by SQL-tainted data ([So_record] phase);
          ["*"] stands for a write whose key is not statically known *)
  mutable exhausted : S.t;
      (** files with a [--flow] body walk that ran out of fixpoint passes;
          their outcome becomes [Budget_exhausted] when results assemble *)
  cache : icache option;
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

let kind_enabled (opts : options) k =
  match opts.restrict_kinds with
  | None -> true
  | Some ks -> List.exists (Vuln.equal_kind k) ks

(** The kinds one configured sink entry checks: a SQLi sink also checks the
    second-order kind when a second-order phase is active (the replayed
    taint still lands in a SQL statement — no extra sink entries needed). *)
let sink_check_kinds a kind =
  match kind with
  | Vuln.Sqli when a.c.opts.so_mode <> So_off ->
      [ Vuln.Sqli; Vuln.Second_order_sqli ]
  | k -> [ k ]

(** Pseudo-sink name prefix for DB-write conditional sinks: firing one
    records a second-order write key instead of reporting a finding. *)
let so_write_prefix = "dbwrite:"

let is_so_write_sink (cs : Summary.cond_sink) =
  String.length cs.Summary.cs_sink_name >= String.length so_write_prefix
  && String.equal
       (String.sub cs.Summary.cs_sink_name 0 (String.length so_write_prefix))
       so_write_prefix

let so_write_key (cs : Summary.cond_sink) =
  String.sub cs.Summary.cs_sink_name (String.length so_write_prefix)
    (String.length cs.Summary.cs_sink_name - String.length so_write_prefix)

let record_so_write (c : ctx) key = c.so_writes <- S.add key c.so_writes

let record_exhausted (c : ctx) file = c.exhausted <- S.add file c.exhausted

(** The one reporting gate, shared by live walks and {!replay}: a finding
    is kept unless its occurrence was already reported.  While a journal
    runs, the first report of each occurrence is also logged before
    de-duplication.  [finding] is built only when one of the two needs it. *)
let emit (c : ctx) occ (finding : unit -> Report.finding) =
  Obs.incr "phpsafe.findings.pre_dedup";
  let fresh = not (Report.Occurrence_set.mem occ c.reported) in
  let logged =
    match c.jseen with
    | Some seen when not (Report.Occurrence_set.mem occ seen) ->
        c.jseen <- Some (Report.Occurrence_set.add occ seen);
        true
    | _ -> false
  in
  if fresh || logged then begin
    let f = finding () in
    if logged then c.emitted <- f :: c.emitted;
    if fresh then begin
      Obs.incr "phpsafe.findings.post_dedup";
      c.reported <- Report.Occurrence_set.add occ c.reported;
      c.findings <- f :: c.findings
    end
  end

let report a ?context ~kind ~pos ~sink_name ~var (taint : Taint.t) =
  if kind_enabled a.c.opts kind then
    let occ =
      { Report.o_key =
          { Report.k_kind = kind; k_file = pos.Phplang.Ast.file;
            k_line = pos.Phplang.Ast.line };
        o_sink = sink_name;
        o_var = var }
    in
    emit a.c occ @@ fun () ->
    let source, source_pos = Taint.source_of taint in
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

(** Check one value arriving at a sink.  Live taint is reported; symbolic
    parameter dependencies become conditional sinks of the enclosing
    summary. *)
let check_sink a ~kind ~pos ~sink_name ~var (taint : Taint.t) =
  List.iter
    (fun kind ->
      if Taint.is_tainted kind taint then
        report a ~kind ~pos ~sink_name ~var taint
      else
        match a.frame with
        | Some frame ->
            Taint.Int_set.iter
              (fun i ->
                frame.fr_csinks <-
                  { Summary.cs_param = i; cs_kind = kind;
                    cs_sink_name = sink_name; cs_pos = pos; cs_var = var;
                    cs_context = None; cs_sans = Taint.no_sans }
                  :: frame.fr_csinks)
              (Taint.deps kind taint)
        | None -> ())
    (sink_check_kinds a kind)

(* ------------------------------------------------------------------ *)
(* Incremental cache: replay and keys                                 *)
(* ------------------------------------------------------------------ *)

(** Scan a function body for the summary cache: collect the names of
    called user functions and decide purity (see {!fmeta.fm_pure}). *)
let scan_func (fn : Phplang.Ast.func) : bool * string list =
  let module A = Phplang.Ast in
  let pure = ref true in
  let callees = ref S.empty in
  let impure () = pure := false in
  let rec expr (e : A.expr) =
    match e.A.e with
    | A.Call (g, args) ->
        callees := S.add (String.lowercase_ascii g) !callees;
        List.iter expr args
    | A.MethodCall (o, _, args) ->
        impure ();
        expr o;
        List.iter expr args
    | A.New (_, args) | A.StaticCall (_, _, args) ->
        impure ();
        List.iter expr args
    | A.Prop (x, _) ->
        impure ();
        expr x
    | A.StaticProp _ ->
        impure ()
    | A.Closure cl ->
        impure ();
        List.iter stmt cl.A.cl_body
    | A.IncludeE (_, arg) ->
        impure ();
        expr arg
    | A.Assign (l, r) | A.AssignRef (l, r) | A.OpAssign (_, l, r)
    | A.Bin (_, l, r) ->
        expr l;
        expr r
    | A.Un (_, x) | A.CastE (_, x) | A.EmptyE x | A.PrintE x -> expr x
    | A.Ternary (cnd, t, e2) ->
        expr cnd;
        Option.iter expr t;
        expr e2
    | A.ArrayGet (a, i) ->
        expr a;
        Option.iter expr i
    | A.ArrayLit items ->
        List.iter
          (fun (k, v) ->
            Option.iter expr k;
            expr v)
          items
    | A.Isset es -> List.iter expr es
    | A.Exit e -> Option.iter expr e
    | A.ListAssign (slots, rhs) ->
        List.iter (Option.iter expr) slots;
        expr rhs
    | A.Interp parts ->
        List.iter (function A.IExpr x -> expr x | A.ILit _ -> ()) parts
    | A.Null | A.True | A.False | A.Int _ | A.Float _ | A.Str _ | A.Var _
    | A.ClassConst _ | A.Const _ ->
        ()
  and stmt (s : A.stmt) =
    match s.A.s with
    | A.Expr e | A.Throw e -> expr e
    | A.Echo es | A.Unset es -> List.iter expr es
    | A.Global _ -> impure ()
    | A.If (branches, els) ->
        List.iter
          (fun (c, b) ->
            expr c;
            List.iter stmt b)
          branches;
        Option.iter (List.iter stmt) els
    | A.While (c, b) ->
        expr c;
        List.iter stmt b
    | A.DoWhile (b, c) ->
        List.iter stmt b;
        expr c
    | A.For (i, c, u, b) ->
        List.iter expr i;
        List.iter expr c;
        List.iter expr u;
        List.iter stmt b
    | A.Foreach (subject, binding, b) ->
        expr subject;
        (match binding with
        | A.ForeachValue v -> expr v
        | A.ForeachKeyValue (k, v) ->
            expr k;
            expr v);
        List.iter stmt b
    | A.Switch (subject, cases) ->
        expr subject;
        List.iter
          (fun (c : A.case) ->
            Option.iter expr c.A.case_guard;
            List.iter stmt c.A.case_body)
          cases
    | A.Return e -> Option.iter expr e
    | A.StaticVar vars -> List.iter (fun (_, d) -> Option.iter expr d) vars
    | A.Block b -> List.iter stmt b
    | A.FuncDef f -> List.iter stmt f.A.f_body
    | A.ClassDef _ -> impure ()
    | A.TryCatch (b, catches) ->
        List.iter stmt b;
        List.iter (fun (c : A.catch) -> List.iter stmt c.A.catch_body) catches
    | A.InlineHtml _ | A.Nop | A.Break | A.Continue -> ()
  in
  List.iter stmt fn.Phplang.Ast.f_body;
  (!pure, S.elements !callees)

(** Function metadata, computed on first demand (warm runs that replay
    every file never pay for the body scans). *)
let meta ic (funcs : (string, func_info) Hashtbl.t) key : fmeta option =
  match Hashtbl.find_opt ic.ic_meta key with
  | Some m -> Some m
  | None -> (
      match Hashtbl.find_opt funcs key with
      | None -> None
      | Some fi ->
          let pure, callees = scan_func fi.fi_func in
          let m =
            {
              fm_digest = Phplang.Digest.structural fi.fi_func;
              fm_callees = callees;
              fm_pure = pure;
              fm_key = None;
            }
          in
          Hashtbl.replace ic.ic_meta key m;
          Some m)

(** Transitive purity: a summary is cacheable when its own body is pure
    and every user function it (transitively) calls is too.  Recursion is
    resolved coinductively — a cycle of pure bodies is cacheable. *)
let rec cacheable ic funcs key =
  match Hashtbl.find_opt ic.ic_cacheable key with
  | Some b -> b
  | None -> (
      match meta ic funcs key with
      | None -> true (* not a user function: behaviour fixed by the config *)
      | Some m ->
          if not m.fm_pure then begin
            Hashtbl.replace ic.ic_cacheable key false;
            false
          end
          else begin
            (* coinductive assumption for the cycle *)
            Hashtbl.replace ic.ic_cacheable key true;
            let ok = List.for_all (cacheable ic funcs) m.fm_callees in
            Hashtbl.replace ic.ic_cacheable key ok;
            ok
          end)

(** Summary-cache key of [key]: covers the configuration slice, the body
    digest and the body digests of every user function transitively
    reachable from it — editing a callee invalidates exactly the callers
    whose summaries could observe the edit.  [None] when not cacheable. *)
let summary_key ic funcs key : string option =
  match meta ic funcs key with
  | None -> None
  | Some m -> (
      match m.fm_key with
      | Some k -> k
      | None ->
          let k =
            if not (cacheable ic funcs key) then None
            else begin
              (* transitive dependency set over the registry call graph *)
              let seen = Hashtbl.create 8 in
              let rec walk k =
                if not (Hashtbl.mem seen k) then begin
                  Hashtbl.add seen k ();
                  match meta ic funcs k with
                  | None -> ()
                  | Some m -> List.iter walk m.fm_callees
                end
              in
              List.iter walk m.fm_callees;
              let deps =
                Hashtbl.fold
                  (fun k () acc ->
                    if String.equal k key then acc
                    else
                      match Hashtbl.find_opt ic.ic_meta k with
                      | Some dm -> (k ^ "=" ^ dm.fm_digest) :: acc
                      | None -> acc)
                  seen []
                |> List.sort String.compare
              in
              Some
                (Phplang.Digest.combine
                   (("summary:" ^ ic.ic_sum_fp) :: (key ^ "=" ^ m.fm_digest)
                   :: deps))
            end
          in
          m.fm_key <- Some k;
          k)

(** Does nothing; kept only for [perfbench/]. *)
let set_dag_tracking (_ : bool) = ()

(** What one recorded walk did to the run state.  Summary entries,
    per-file entries and uncalled-function records all replay a journal in
    place of the walk. *)
type journal = {
  j_findings : Report.finding list;
      (** reported before de-duplication, oldest first; only the first
          report of each occurrence is kept, since a later one can never
          pass the gate on replay *)
  j_summaries : (string * string option * Summary.t) list;
      (** published or replayed, oldest first, each with the
          {!summary_key} it was recorded under *)
  j_so_writes : string list;  (** DB-write keys added ([So_record]) *)
  j_exhausted : string list;  (** files whose [--flow] fixpoint ran out *)
}

(* what was consed onto [before] to make [now], oldest first *)
let since before now =
  let rec go acc l =
    if l == before then acc
    else match l with [] -> acc | x :: tl -> go (x :: acc) tl
  in
  go [] now

let added before now =
  if now == before then [] else S.elements (S.diff now before)

let current_key (c : ctx) key =
  Option.bind c.cache (fun ic -> summary_key ic c.funcs key)

(** Publish a function summary built or checked by live analysis. *)
let publish (c : ctx) key s =
  Hashtbl.replace c.summaries key s;
  c.sum_log <- (key, current_key c key, s) :: c.sum_log

(** [f ()] and the journal of what it did to [c]'s four logs.  Journals
    nest: a summary built inside a recorded file walk has its own. *)
let journaled (c : ctx) f =
  let e0 = c.emitted and l0 = c.sum_log in
  let so0 = c.so_writes and ex0 = c.exhausted in
  let outer = c.jseen in
  c.jseen <- Some Report.Occurrence_set.empty;
  let v =
    Fun.protect f ~finally:(fun () ->
        (* the inner window lies inside the outer one *)
        c.jseen <-
          (match (outer, c.jseen) with
          | Some o, Some i -> Some (Report.Occurrence_set.union o i)
          | _ -> outer))
  in
  let _, findings =
    List.fold_left
      (fun (seen, acc) f ->
        let occ = Report.occurrence_of_finding f in
        if Report.Occurrence_set.mem occ seen then (seen, acc)
        else (Report.Occurrence_set.add occ seen, f :: acc))
      (Report.Occurrence_set.empty, [])
      (since e0 c.emitted)
  in
  (* outside every journal the log is dead weight *)
  if Option.is_none outer then c.emitted <- e0;
  ( v,
    { j_findings = List.rev findings;
      j_summaries = since l0 c.sum_log;
      j_so_writes = added so0 c.so_writes;
      j_exhausted = added ex0 c.exhausted } )

(** Re-apply a journal through the gates live code uses, so replayed and
    live work interleave exactly as in the cold run that recorded it.
    Recorded summaries are deferred, not published: a per-file key covers
    only the include closure, and a called function can be defined outside
    it, so {!obtain_summary} checks a summary's key when a live call first
    needs it.  The check costs nothing in runs that replay every file. *)
let replay (c : ctx) j =
  List.iter
    (fun f -> emit c (Report.occurrence_of_finding f) (fun () -> f))
    j.j_findings;
  List.iter
    (fun ((k, sk, s) as e) ->
      if not (Hashtbl.mem c.summaries k || Hashtbl.mem c.deferred k) then begin
        Hashtbl.replace c.deferred k (sk, s);
        c.sum_log <- e :: c.sum_log
      end)
    j.j_summaries;
  List.iter (record_so_write c) j.j_so_writes;
  List.iter (record_exhausted c) j.j_exhausted

(** What the per-file result cache persists for one analyzable file: the
    journal of its entry walk, its outcome after the walk, and one record
    per function defined in it that the run analyzed as an uncalled entry
    point (the walk's journal, and the exception text if it crashed). *)
type file_entry = {
  fe_journal : journal;
  fe_outcome : Report.file_outcome;
  fe_uncalled : (string * (journal * string option)) list;
}

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

(** Did the value pass through a sanitizer adequate for context [ctxt]? *)
let adequately_sanitized ix kind ctxt (taint : Taint.t) =
  Taint.San_set.exists
    (fun name -> Config.adequate ix ~name ctxt)
    (Taint.applied kind taint)

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
    depends on an enclosing parameter, register a [dbwrite:] pseudo
    conditional sink so the record still happens through summaries. *)
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
            match a.frame with
            | Some frame ->
                Taint.Int_set.iter
                  (fun i ->
                    frame.fr_csinks <-
                      { Summary.cs_param = i; cs_kind = Vuln.Sqli;
                        cs_sink_name = so_write_prefix ^ key; cs_pos = pos;
                        cs_var = name; cs_context = None;
                        cs_sans = Taint.no_sans }
                      :: frame.fr_csinks)
                  (Taint.deps Vuln.Sqli joined)
            | None -> ()))

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

(* ------------------------------------------------------------------ *)
(* Names                                                              *)
(* ------------------------------------------------------------------ *)

let rec name_of_expr (e : Phplang.Ast.expr) =
  match e.Phplang.Ast.e with
  | Phplang.Ast.Var v -> v
  | Phplang.Ast.ArrayGet (b, _) -> name_of_expr b ^ "[...]"
  | Phplang.Ast.Prop (b, p) -> name_of_expr b ^ "->" ^ p
  | Phplang.Ast.StaticProp (c, p) -> c ^ "::" ^ p
  | Phplang.Ast.Call (f, _) -> f ^ "()"
  | Phplang.Ast.MethodCall (b, m, _) -> name_of_expr b ^ "->" ^ m ^ "()"
  | Phplang.Ast.StaticCall (c, m, _) -> c ^ "::" ^ m ^ "()"
  | Phplang.Ast.Interp _ -> "<string>"
  | Phplang.Ast.Bin (Phplang.Ast.Concat, _, _) -> "<concat>"
  | _ -> "<expr>"

let lc = String.lowercase_ascii
let method_key cls m = lc cls ^ "::" ^ lc m

(* Structural equality of conditional sinks; sanitizer sets need their own
   equality (tree shapes differ for equal sets). *)
let cond_sink_same (a : Summary.cond_sink) (b : Summary.cond_sink) =
  a.Summary.cs_param = b.Summary.cs_param
  && a.Summary.cs_kind = b.Summary.cs_kind
  && String.equal a.Summary.cs_sink_name b.Summary.cs_sink_name
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
  | Phplang.Ast.Null | Phplang.Ast.True | Phplang.Ast.False
  | Phplang.Ast.Int _ | Phplang.Ast.Float _ | Phplang.Ast.Str _
  | Phplang.Ast.Const _ | Phplang.Ast.ClassConst _ ->
      Taint.untainted
  | Phplang.Ast.Interp parts ->
      Taint.join_all
        (List.map
           (function
             | Phplang.Ast.ILit _ -> Taint.untainted
             | Phplang.Ast.IExpr e -> eval a e)
           parts)
  | Phplang.Ast.Var v -> (
      match Config.is_superglobal_source a.c.ix v with
      | Some kinds ->
          Taint.of_source ~kinds ~source:(Vuln.Superglobal v) ~pos
          |> Taint.push_step ~var:v ~pos ~note:"attacker-controlled input"
      | None -> Env.get a.env v)
  | Phplang.Ast.ArrayGet (b, idx) ->
      Option.iter (fun i -> ignore (eval a i)) idx;
      eval a b
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
  | Phplang.Ast.ArrayLit items ->
      Taint.join_all
        (List.map
           (fun (k, v) ->
             Option.iter (fun k -> ignore (eval a k)) k;
             eval a v)
           items)
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
  | Phplang.Ast.Bin (op, l, r) -> (
      let lt = eval a l and rt = eval a r in
      match op with
      | Phplang.Ast.Concat -> Taint.join lt rt
      (* ?? selects one operand's value, so taint flows from both sides *)
      | Phplang.Ast.Coalesce -> Taint.join lt rt
      | Phplang.Ast.Plus | Phplang.Ast.Minus | Phplang.Ast.Mul
      | Phplang.Ast.Div | Phplang.Ast.Mod ->
          Taint.untainted
      | Phplang.Ast.Eq | Phplang.Ast.Neq | Phplang.Ast.Identical
      | Phplang.Ast.NotIdentical | Phplang.Ast.Lt | Phplang.Ast.Gt
      | Phplang.Ast.Le | Phplang.Ast.Ge | Phplang.Ast.BoolAnd
      | Phplang.Ast.BoolOr ->
          Taint.untainted)
  | Phplang.Ast.Un (op, x) -> (
      let t = eval a x in
      match op with
      | Phplang.Ast.Silence -> t
      | Phplang.Ast.Not | Phplang.Ast.Neg | Phplang.Ast.PreInc
      | Phplang.Ast.PreDec | Phplang.Ast.PostInc | Phplang.Ast.PostDec ->
          Taint.untainted)
  | Phplang.Ast.Ternary (c, thn, els) ->
      let ct = eval a c in
      let tt = match thn with Some t -> eval a t | None -> ct in
      let et = eval a els in
      Taint.join tt et
  | Phplang.Ast.CastE (cast, x) -> (
      let t = eval a x in
      match cast with
      | Phplang.Ast.CastInt | Phplang.Ast.CastFloat | Phplang.Ast.CastBool ->
          Taint.untainted
      | Phplang.Ast.CastString | Phplang.Ast.CastArray -> t)
  | Phplang.Ast.Isset es ->
      List.iter (fun e -> ignore (eval a e)) es;
      Taint.untainted
  | Phplang.Ast.EmptyE x ->
      ignore (eval a x);
      Taint.untainted
  | Phplang.Ast.PrintE x ->
      if ctx_on a then
        ignore (check_sink_ctx a ~pos ~targets:[ (Vuln.Xss, "print") ] x)
      else begin
        let t = eval a x in
        check_sink a ~kind:Vuln.Xss ~pos ~sink_name:"print" ~var:(name_of_expr x) t
      end;
      Taint.untainted
  | Phplang.Ast.Exit arg ->
      Option.iter
        (fun x ->
          if ctx_on a then
            ignore (check_sink_ctx a ~pos ~targets:[ (Vuln.Xss, "exit") ] x)
          else begin
            let t = eval a x in
            check_sink a ~kind:Vuln.Xss ~pos ~sink_name:"exit" ~var:(name_of_expr x) t
          end)
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

(* Context-mode sink check: evaluate the sink argument piecewise (each
   dynamic hole exactly once — [Strshape.pieces] only decomposes
   side-effect-free literal structure), infer each hole's output context
   from the constant prefix, and report a tainted hole only when none of
   its applied sanitizers is adequate for that context.  Parameter-
   dependent holes register conditional sinks carrying the context and the
   sanitizer delta.  Returns the joined taint of the whole argument, so
   callers use this INSTEAD of [eval] on the sink argument. *)
and check_sink_ctx a ~pos ~targets (e : Phplang.Ast.expr) : Taint.t =
  let targets =
    List.concat_map
      (fun (kind, sink_name) ->
        List.map (fun k -> (k, sink_name)) (sink_check_kinds a kind))
      targets
  in
  let prefix = Buffer.create 64 in
  let acc = ref Taint.untainted in
  List.iter
    (function
      | Phplang.Strshape.Lit s -> Buffer.add_string prefix s
      | Phplang.Strshape.Dyn sub ->
          let t = eval a sub in
          let var = name_of_expr sub in
          (* inferred only for a hole that can report or register a
             conditional sink; [infer_context] is pure *)
          let context kind = infer_context kind (Buffer.contents prefix) in
          List.iter
            (fun (kind, sink_name) ->
              if Taint.is_tainted kind t then begin
                let ctxt = context kind in
                if not (adequately_sanitized a.c.ix kind ctxt t) then
                  report a ~context:ctxt ~kind ~pos ~sink_name ~var t
              end
              else
                match a.frame with
                | Some frame ->
                    let deps = Taint.deps kind t in
                    if not (Taint.Int_set.is_empty deps) then begin
                      let ctxt = context kind in
                      Taint.Int_set.iter
                        (fun i ->
                          frame.fr_csinks <-
                            { Summary.cs_param = i; cs_kind = kind;
                              cs_sink_name = sink_name; cs_pos = pos;
                              cs_var = var; cs_context = Some ctxt;
                              cs_sans = t.Taint.sans }
                            :: frame.fr_csinks)
                        deps
                    end
                | None -> ())
            targets;
          acc := Taint.join !acc t)
    (Phplang.Strshape.pieces e);
  !acc

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
  let sinks = Config.find_sinks ix fname in
  (* 1. sink roles.  In context mode the sink arguments are evaluated
     piecewise by [check_sink_ctx] (still exactly once each) so that every
     hole gets its inferred output context. *)
  let arg_ts =
    if ctx_on a && sinks <> [] then
      List.map
        (fun e ->
          match
            List.filter (fun snk -> sink_applies snk ~args ~arg:e) sinks
          with
          | [] -> eval a e
          | applicable ->
              let targets =
                List.map
                  (fun (snk : Config.sink_entry) -> (snk.Config.snk_kind, fname))
                  applicable
              in
              check_sink_ctx a ~pos ~targets e)
        args
    else begin
      let arg_ts = List.map (eval a) args in
      List.iter
        (fun (snk : Config.sink_entry) ->
          List.iteri
            (fun i t ->
              match List.nth_opt args i with
              | Some e when sink_applies snk ~args ~arg:e ->
                  check_sink a ~kind:snk.Config.snk_kind ~pos ~sink_name:fname
                    ~var:(name_of_expr e) t
              | _ -> ())
            arg_ts)
        sinks;
      arg_ts
    end
  in
  check_db_write a ~pos ~is_method:false fname args arg_ts;
  let so_t = so_read_taint a ~pos ~is_method:false fname args in
  let arg0 () =
    match arg_ts with t :: _ -> t | [] -> Taint.untainted
  in
  let arg0_name () =
    match args with e :: _ -> name_of_expr e | [] -> "<none>"
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
  let obj_name = name_of_expr obj in
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
  (* method sinks check their first (query) argument; in context mode that
     argument is evaluated piecewise by [check_sink_ctx] *)
  let arg_ts =
    if ctx_on a && msinks <> [] then
      match args with
      | e :: rest -> (
          match
            List.filter (fun snk -> sink_applies snk ~args ~arg:e) msinks
          with
          | [] -> List.map (eval a) args
          | applicable ->
              let targets =
                List.map
                  (fun (snk : Config.sink_entry) ->
                    (snk.Config.snk_kind, full_name obj_name))
                  applicable
              in
              check_sink_ctx a ~pos ~targets e :: List.map (eval a) rest)
      | [] -> []
    else begin
      let arg_ts = List.map (eval a) args in
      List.iter
        (fun (snk : Config.sink_entry) ->
          match (arg_ts, args) with
          | t :: _, e :: _ when sink_applies snk ~args ~arg:e ->
              check_sink a ~kind:snk.Config.snk_kind ~pos
                ~sink_name:(full_name obj_name) ~var:(name_of_expr e) t
          | _ -> ())
        msinks;
      arg_ts
    end
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
            else Some (obtain_summary a.c fi)
      in
      (match summary with
      | None -> Taint.untainted
      | Some summary ->
          (* fire conditional sinks with the actual argument taints *)
          List.iter
            (fun action ->
              match action with
              | `Fire ((cs : Summary.cond_sink), (arg_taint : Taint.t))
                when is_so_write_sink cs ->
                  (* a [dbwrite:] pseudo-sink never reports; firing it with
                     SQL-tainted data records the second-order write key *)
                  if Taint.is_tainted Vuln.Sqli arg_taint then
                    record_so_write a.c (so_write_key cs)
              | `Fire ((cs : Summary.cond_sink), (arg_taint : Taint.t)) ->
                  (* context mode: replay the callee's sanitizer delta on
                     the argument and test adequacy against the context
                     inferred at the callee's sink *)
                  let arg_taint =
                    if ctx_on a then
                      { arg_taint with
                        Taint.sans =
                          Taint.compose_sans ~outer:arg_taint.Taint.sans
                            ~inner:cs.Summary.cs_sans }
                    else arg_taint
                  in
                  let suppressed =
                    ctx_on a
                    && (match cs.Summary.cs_context with
                       | Some ctxt ->
                           adequately_sanitized a.c.ix
                             cs.Summary.cs_kind ctxt arg_taint
                       | None -> false)
                  in
                  if not suppressed then begin
                    let arg_var =
                      match List.nth_opt arg_exprs cs.Summary.cs_param with
                      | Some e -> name_of_expr e
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
                      ~sink_name:cs.Summary.cs_sink_name ~var:cs.Summary.cs_var
                      t
                  end
              | `Hoist cs -> (
                  match a.frame with
                  | Some frame -> frame.fr_csinks <- cs :: frame.fr_csinks
                  | None -> ()))
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

(** {!analyze_function} behind the summary cache: a deferred summary
    whose key still matches is published; otherwise a hit replays the
    journal recorded with the summary instead of walking the body, and a
    miss walks it and persists the summary with its journal.  An impure
    function (no key) and a cache-off run go straight to the walk. *)
and obtain_summary (c : ctx) (fi : func_info) : Summary.t =
  match current_key c fi.fi_key with
  | None -> analyze_function c fi
  | Some key -> (
      match Hashtbl.find_opt c.deferred fi.fi_key with
      | Some (Some k, s) when String.equal k key ->
          Hashtbl.remove c.deferred fi.fi_key;
          publish c fi.fi_key s;
          s
      | _ -> (
          match Phplang.Store.get ~ns:"summary" ~key with
          | Some ((s, j) : Summary.t * journal) ->
              replay c j;
              s
          | None ->
              let s, j = journaled c (fun () -> analyze_function c fi) in
              Phplang.Store.put ~ns:"summary" ~key (s, j);
              s))

and analyze_function (c : ctx) (fi : func_info) : Summary.t =
  Obs.incr "phpsafe.summaries.built";
  Hashtbl.replace c.in_progress fi.fi_key ();
  let env = Env.create_scope ?current_class:fi.fi_class c.globals in
  List.iteri
    (fun i (p : Phplang.Ast.param) ->
      Option.iter (fun d -> ignore d) p.Phplang.Ast.p_default;
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
  publish c fi.fi_key summary;
  summary

and exec_include a (arg : Phplang.Ast.expr) =
  (* a dynamic include path is the classic LFI sink: check the argument
     against the configured [include] sink entries (paper-class path
     traversal; a string literal resolves statically and is safe) *)
  let check_dynamic () =
    match Config.find_sinks a.c.ix "include" with
    | [] -> ignore (eval a arg)
    | include_sinks ->
        let pos = arg.Phplang.Ast.epos in
        let args = [ arg ] in
        if ctx_on a then (
          match
            List.filter
              (fun snk -> sink_applies snk ~args ~arg)
              include_sinks
          with
          | [] -> ignore (eval a arg)
          | applicable ->
              let targets =
                List.map
                  (fun (snk : Config.sink_entry) ->
                    (snk.Config.snk_kind, "include"))
                  applicable
              in
              ignore (check_sink_ctx a ~pos ~targets arg))
        else
          let t = eval a arg in
          List.iter
            (fun (snk : Config.sink_entry) ->
              if sink_applies snk ~args ~arg then
                check_sink a ~kind:snk.Config.snk_kind ~pos
                  ~sink_name:"include" ~var:(name_of_expr arg) t)
            include_sinks
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
   budget-exhausted. *)
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
        max_passes = (Budget.get ()).Budget.fixpoint_passes;
      }
      cfg
  in
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
          if ctx_on a then
            ignore
              (check_sink_ctx a ~pos:e.Phplang.Ast.epos
                 ~targets:[ (Vuln.Xss, "echo") ] e)
          else begin
            let t = eval a e in
            check_sink a ~kind:Vuln.Xss ~pos:e.Phplang.Ast.epos ~sink_name:"echo"
              ~var:(name_of_expr e) t
          end)
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

let rec register_stmt ctx ~file (s : Phplang.Ast.stmt) =
  match s.Phplang.Ast.s with
  | Phplang.Ast.FuncDef f ->
      let key = lc f.Phplang.Ast.f_name in
      if not (Hashtbl.mem ctx.funcs key) then
        Hashtbl.replace ctx.funcs key
          { fi_key = key; fi_func = f; fi_class = None; fi_file = file };
      List.iter (register_stmt ctx ~file) f.Phplang.Ast.f_body
  | Phplang.Ast.ClassDef cls ->
      if not (Hashtbl.mem ctx.classes (lc cls.Phplang.Ast.c_name)) then
        Hashtbl.replace ctx.classes (lc cls.Phplang.Ast.c_name) cls;
      List.iter
        (fun (m : Phplang.Ast.method_def) ->
          let key = method_key cls.Phplang.Ast.c_name m.Phplang.Ast.m_func.Phplang.Ast.f_name in
          if not (Hashtbl.mem ctx.funcs key) then
            Hashtbl.replace ctx.funcs key
              { fi_key = key; fi_func = m.Phplang.Ast.m_func;
                fi_class = Some cls.Phplang.Ast.c_name; fi_file = file };
          List.iter (register_stmt ctx ~file) m.Phplang.Ast.m_func.Phplang.Ast.f_body)
        cls.Phplang.Ast.c_methods
  | Phplang.Ast.If (branches, els) ->
      List.iter (fun (_, b) -> List.iter (register_stmt ctx ~file) b) branches;
      Option.iter (List.iter (register_stmt ctx ~file)) els
  | Phplang.Ast.While (_, b) | Phplang.Ast.DoWhile (b, _)
  | Phplang.Ast.Foreach (_, _, b) | Phplang.Ast.Block b
  | Phplang.Ast.For (_, _, _, b) ->
      List.iter (register_stmt ctx ~file) b
  | Phplang.Ast.Switch (_, cases) ->
      List.iter
        (fun (c : Phplang.Ast.case) ->
          List.iter (register_stmt ctx ~file) c.Phplang.Ast.case_body)
        cases
  | Phplang.Ast.TryCatch (b, catches) ->
      List.iter (register_stmt ctx ~file) b;
      List.iter
        (fun (c : Phplang.Ast.catch) ->
          List.iter (register_stmt ctx ~file) c.Phplang.Ast.catch_body)
        catches
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Project driver                                                     *)
(* ------------------------------------------------------------------ *)

let analyze_project_internal ?(opts = default_options)
    (project : Phplang.Project.t) : Report.result * string list =
  (* stage 1 (§III.A): configuration — the run context carrying the sink/
     source/sanitizer model and its role index, plus the incremental-cache
     fingerprints when a cache root is configured.  The index is built
     here, not kept in [Config.t], so the fingerprints, which digest
     [opts], see only the plain profile.  The file fingerprint covers the whole
     option record (profile, [--contexts], [--flow], guards, the modeling
     budget) and the slice of the safety {!Budget} phpSAFE consults; the
     summary fingerprint deliberately excludes the include caps — function
     bodies with includes are never cached, so [--budget-include-*] must
     not invalidate summaries.  The fixpoint-pass cap is consulted only by
     the [--flow] walk (which also runs inside function bodies), so it
     joins both fingerprints exactly when that mode is on. *)
  let ctx =
    Obs.span "phpsafe.config" @@ fun () ->
    let cache =
      if not (Cache.enabled ()) then None
      else
        let b = Budget.get () in
        let flow_passes =
          if opts.flow_sensitive then b.Budget.fixpoint_passes else 0
        in
        Some
          {
            ic_file_fp =
              Phplang.Digest.structural
                ( "phpSAFE-file",
                  opts,
                  ( b.Budget.parse_depth,
                    b.Budget.include_depth,
                    b.Budget.include_files ),
                  flow_passes );
            ic_sum_fp =
              Phplang.Digest.structural
                ("phpSAFE-summary", opts, b.Budget.parse_depth, flow_passes);
            ic_meta = Hashtbl.create 64;
            ic_cacheable = Hashtbl.create 64;
          }
    in
    {
      opts;
      ix = Config.index opts.config;
      project;
      parsed = Hashtbl.create 64;
      funcs = Hashtbl.create 128;
      classes = Hashtbl.create 32;
      summaries = Hashtbl.create 128;
      in_progress = Hashtbl.create 8;
      globals = Env.table ();
      findings = [];
      reported = Report.Occurrence_set.empty;
      emitted = [];
      jseen = None;
      include_stack = S.empty;
      errors = 0;
      sum_log = [];
      deferred = Hashtbl.create 16;
      so_writes = S.empty;
      exhausted = S.empty;
      cache;
    }
  in
  let outcomes = ref [] in
  let unresolved = ref S.empty in
  let closures : (string, Phplang.Project.closure) Hashtbl.t =
    Hashtbl.create 64
  in
  (* stage 2 (§III.B): model construction — parse everything, check the
     include budget, hoist the function/class registry *)
  let analyzable =
    Obs.span "phpsafe.model" @@ fun () ->
    let parse_ok = ref [] in
    List.iter
      (fun (f : Phplang.Project.file) ->
        match Phplang.Project.parse_file f with
        | Ok prog ->
            Hashtbl.replace ctx.parsed f.Phplang.Project.path prog;
            parse_ok := f.Phplang.Project.path :: !parse_ok
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
    (* include closures: needed for the memory budget and for the result
       cache's closure digests; walked once, used by both.  No closure is
       built at all when include resolution is off. *)
    if opts.resolve_includes && (opts.budget <> None || ctx.cache <> None)
    then begin
      let safety = Budget.get () in
      List.iter
        (fun path ->
          let parse (f : Phplang.Project.file) =
            Hashtbl.find_opt ctx.parsed f.Phplang.Project.path
          in
          Hashtbl.replace closures path
            (Phplang.Project.include_closure
               ~max_depth:safety.Budget.include_depth
               ~max_files:safety.Budget.include_files ~parse project path))
        parse_ok
    end;
    (* memory budget: files whose include closure is too expensive fail *)
    let failed_mem = Hashtbl.create 4 in
    (match (if opts.resolve_includes then opts.budget else None) with
    | None -> ()
    | Some budget ->
        List.iter
          (fun path ->
            let closure = Hashtbl.find closures path in
            let closure_loc =
              List.fold_left
                (fun acc p ->
                  match Phplang.Project.find project p with
                  | Some f -> acc + Phplang.Loc.count f.Phplang.Project.source
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
    (* registry (hoisting): functions and classes from analyzable files *)
    List.iter
      (fun path ->
        List.iter (register_stmt ctx ~file:path) (Hashtbl.find ctx.parsed path))
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
  (* per-file result cache key: everything the entry walk can observe —
     the fingerprint (configuration + budget slice), the file itself, and
     the source digest of every file in its include closure (missing
     closure members are part of the key by name, so creating one later
     invalidates).  Calls and globals are assumed to resolve within the
     closure, as in the paper's per-file + includes model; DESIGN.md
     "Incremental analysis" has two repros where they do not. *)
  let unit_key ic path =
    let closure_part =
      if not opts.resolve_includes then [ "no-includes" ]
      else
        match Hashtbl.find_opt closures path with
        | None -> [ "no-closure" ]
        | Some cl ->
            (if cl.Phplang.Project.cl_truncated then "truncated" else "full")
            :: List.map
                 (fun p ->
                   match Phplang.Project.find project p with
                   | Some f ->
                       p ^ "=" ^ Phplang.Digest.hex f.Phplang.Project.source
                   | None -> p ^ "=<missing>")
                 cl.Phplang.Project.cl_paths
    in
    let source =
      match Phplang.Project.find project path with
      | Some f -> Phplang.Digest.hex f.Phplang.Project.source
      | None -> "<missing>"
    in
    Phplang.Digest.combine
      (("unit:" ^ ic.ic_file_fp) :: path :: source :: closure_part)
  in
  let ukeys : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let replayed : (string, file_entry) Hashtbl.t = Hashtbl.create 64 in
  let recorded : (string, file_entry) Hashtbl.t = Hashtbl.create 64 in
  (* [walk ()] live; with a cache, hand its value and journal to [record] *)
  let walk_recorded walk record =
    match ctx.cache with
    | None -> walk ()
    | Some _ ->
        let v, j = journaled ctx walk in
        record v j;
        v
  in
  (* stage 3 (§III.C): inter-procedural analysis from each file's "main
     function", then uncalled functions as entry points.  With a cache
     root configured, each file either replays its recorded entry (same
     findings, summaries and outcome, no walk) or is walked live and
     recorded. *)
  Obs.span "phpsafe.analysis" (fun () ->
      List.iter
        (fun path ->
          (* file boundary: a per-request deadline cancels between files *)
          Deadline.check ();
          let entry =
            match ctx.cache with
            | None -> None
            | Some ic ->
                let key = unit_key ic path in
                Hashtbl.replace ukeys path key;
                (Cache.find ~key : file_entry option)
          in
          match entry with
          | Some e ->
              Obs.incr "cache.result.replayed.phpSAFE";
              Hashtbl.replace replayed path e;
              replay ctx e.fe_journal;
              (match e.fe_outcome with
              | Report.Analyzed -> ()
              | Report.Failed _ -> ctx.errors <- ctx.errors + 1);
              outcomes := (path, e.fe_outcome) :: !outcomes
          | None ->
              walk_recorded
                (fun () ->
                  ctx.include_stack <- S.singleton path;
                  let env = Env.create_toplevel ctx.globals in
                  let a = { c = ctx; env; frame = None; file = path } in
                  match exec_body a (Hashtbl.find ctx.parsed path) with
                  | () -> outcomes := (path, Report.Analyzed) :: !outcomes
                  | exception (Deadline.Exceeded as e) -> raise e
                  | exception exn ->
                      mark_file_crashed path (Printexc.to_string exn))
                (fun () j ->
                  Hashtbl.replace recorded path
                    { fe_journal = j;
                      fe_outcome =
                        Option.value (List.assoc_opt path !outcomes)
                          ~default:Report.Analyzed;
                      fe_uncalled = [] }))
        analyzable;
      (* replayed entries deferred their summaries, so the uncalled set is
         exactly the cold run's *)
      if opts.analyze_uncalled then
        Hashtbl.fold
          (fun key fi acc ->
            if Hashtbl.mem ctx.summaries key || Hashtbl.mem ctx.deferred key
            then acc
            else (key, fi) :: acc)
          ctx.funcs []
        |> List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2)
        |> List.iter (fun (fkey, fi) ->
               Deadline.check ();
               let file = fi.fi_file in
               let crashed =
                 match
                   Option.bind (Hashtbl.find_opt replayed file) (fun e ->
                       List.assoc_opt fkey e.fe_uncalled)
                 with
                 | Some (j, crashed) ->
                     replay ctx j;
                     crashed
                 | None ->
                     walk_recorded
                       (fun () ->
                         match obtain_summary ctx fi with
                         | _ -> None
                         | exception (Deadline.Exceeded as e) -> raise e
                         | exception exn -> Some (Printexc.to_string exn))
                       (fun crashed j ->
                         Option.iter
                           (fun e ->
                             Hashtbl.replace recorded file
                               { e with
                                 fe_uncalled =
                                   (fkey, (j, crashed)) :: e.fe_uncalled })
                           (Hashtbl.find_opt recorded file))
               in
               Option.iter (mark_file_crashed file) crashed));
  (* persist the entries recorded this run *)
  Hashtbl.iter
    (fun path e -> Cache.store ~key:(Hashtbl.find ukeys path) e)
    recorded;
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
