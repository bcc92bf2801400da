(** Multi-file plugin model.

    A WordPress-style plugin is a named collection of PHP files.  Analyzers
    work per file but need the whole project to resolve [include]/[require]
    statements (paper §III.B: "the PHP file can include other PHP files
    recursively, all of them must be analyzed in order to obtain the complete
    AST"). *)

type file = { path : string; source : string }

type t = { name : string; files : file list }

let make ~name files = { name; files }

let find t path = List.find_opt (fun f -> String.equal f.path path) t.files

let file_count t = List.length t.files

(** Literal include targets of a program: the string arguments of
    [include]/[require] expressions, in order.  Dynamic include arguments
    (anything but a string literal) are skipped, like the real tools do. *)
let include_targets (prog : Ast.program) : string list =
  let acc = ref [] in
  let rec visit_expr (e : Ast.expr) =
    match e.Ast.e with
    | Ast.IncludeE (_, { Ast.e = Ast.Str path; _ }) -> acc := path :: !acc
    | Ast.IncludeE (_, arg) -> visit_expr arg
    | Ast.Assign (l, r) | Ast.AssignRef (l, r) | Ast.OpAssign (_, l, r)
    | Ast.Bin (_, l, r) ->
        visit_expr l;
        visit_expr r
    | Ast.Un (_, x) | Ast.CastE (_, x) | Ast.EmptyE x | Ast.PrintE x
    | Ast.Prop (x, _) ->
        visit_expr x
    | Ast.Ternary (c, t, e2) ->
        visit_expr c;
        Option.iter visit_expr t;
        visit_expr e2
    | Ast.ArrayGet (a, i) ->
        visit_expr a;
        Option.iter visit_expr i
    | Ast.ArrayLit items ->
        List.iter
          (fun (k, v) ->
            Option.iter visit_expr k;
            visit_expr v)
          items
    | Ast.Call (_, args) | Ast.New (_, args) | Ast.StaticCall (_, _, args) ->
        List.iter visit_expr args
    | Ast.MethodCall (o, _, args) ->
        visit_expr o;
        List.iter visit_expr args
    | Ast.Isset es -> List.iter visit_expr es
    | Ast.Exit e -> Option.iter visit_expr e
    | Ast.Closure c -> List.iter visit_stmt c.Ast.cl_body
    | Ast.ListAssign (slots, rhs) ->
        List.iter (Option.iter visit_expr) slots;
        visit_expr rhs
    | Ast.Null | Ast.True | Ast.False | Ast.Int _ | Ast.Float _ | Ast.Str _
    | Ast.Var _ | Ast.StaticProp _ | Ast.ClassConst _ | Ast.Const _ ->
        ()
    | Ast.Interp parts ->
        List.iter (function Ast.IExpr e -> visit_expr e | Ast.ILit _ -> ()) parts
  and visit_stmt (s : Ast.stmt) =
    match s.Ast.s with
    | Ast.Expr e | Ast.Throw e -> visit_expr e
    | Ast.Echo es | Ast.Unset es -> List.iter visit_expr es
    | Ast.If (branches, els) ->
        List.iter
          (fun (c, b) ->
            visit_expr c;
            List.iter visit_stmt b)
          branches;
        Option.iter (List.iter visit_stmt) els
    | Ast.While (c, b) ->
        visit_expr c;
        List.iter visit_stmt b
    | Ast.DoWhile (b, c) ->
        List.iter visit_stmt b;
        visit_expr c
    | Ast.For (i, c, u, b) ->
        List.iter visit_expr i;
        List.iter visit_expr c;
        List.iter visit_expr u;
        List.iter visit_stmt b
    | Ast.Foreach (subject, binding, b) ->
        visit_expr subject;
        (match binding with
        | Ast.ForeachValue v -> visit_expr v
        | Ast.ForeachKeyValue (k, v) ->
            visit_expr k;
            visit_expr v);
        List.iter visit_stmt b
    | Ast.Switch (subject, cases) ->
        visit_expr subject;
        List.iter (fun c -> List.iter visit_stmt c.Ast.case_body) cases
    | Ast.Return e -> Option.iter visit_expr e
    | Ast.StaticVar vars -> List.iter (fun (_, d) -> Option.iter visit_expr d) vars
    | Ast.Block b -> List.iter visit_stmt b
    | Ast.FuncDef f -> List.iter visit_stmt f.Ast.f_body
    | Ast.ClassDef c ->
        List.iter (fun m -> List.iter visit_stmt m.Ast.m_func.Ast.f_body) c.Ast.c_methods
    | Ast.TryCatch (b, catches) ->
        List.iter visit_stmt b;
        List.iter (fun c -> List.iter visit_stmt c.Ast.catch_body) catches
    | Ast.Break | Ast.Continue | Ast.Global _ | Ast.InlineHtml _ | Ast.Nop -> ()
  in
  List.iter visit_stmt prog;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Memoized parsing                                                   *)
(* ------------------------------------------------------------------ *)

(** Why a parse failed — analyzers map [Syntax] to a parse-failure outcome
    and [Over_budget] to a resource-budget one in the §V.E robustness
    table. *)
type parse_error =
  | Syntax of string  (** the lexer or parser rejected the input *)
  | Over_budget of string  (** the nesting-depth fuel ran out *)

let parse_error_message = function Syntax m | Over_budget m -> m

(** Content-keyed parse memoization shared by every analyzer.  A file's AST
    depends only on its path (recorded in positions) and its source text, so
    entries are keyed by path + source digest and can be shared across
    plugins, analyzers and domains: each distinct file is parsed exactly
    once per process, the second and third tool reuse the first tool's
    work.

    Domain safety: the table is guarded by a mutex, and a miss publishes an
    [In_progress] marker before parsing outside the lock, so concurrent
    requests for the same file wait on the condition variable instead of
    parsing twice — the "exactly once" stats guarantee holds under
    parallelism. *)
module Parse_cache = struct
  type entry =
    | In_progress
    | Done of (Ast.program, parse_error) result

  type t = {
    table : (string * string, entry) Hashtbl.t;  (** (path, digest) *)
    lock : Mutex.t;
    cond : Condition.t;
    hits : int Atomic.t;
    misses : int Atomic.t;
  }

  let create () =
    {
      table = Hashtbl.create 256;
      lock = Mutex.create ();
      cond = Condition.create ();
      hits = Atomic.make 0;
      misses = Atomic.make 0;
    }

  (** Process-wide default used by the analyzers. *)
  let shared = create ()

  (* Global kill switch, for A/B-testing the cache (test_sched) and for
     memory-constrained runs; flip only from a quiescent main domain. *)
  let enabled_flag = Atomic.make true
  let set_enabled b = Atomic.set enabled_flag b
  let enabled () = Atomic.get enabled_flag

  let hits t = Atomic.get t.hits
  let misses t = Atomic.get t.misses

  let clear t =
    Mutex.lock t.lock;
    Hashtbl.reset t.table;
    Mutex.unlock t.lock;
    Atomic.set t.hits 0;
    Atomic.set t.misses 0

  (* Publish a result computed outside the memo (the incremental pipeline)
     so later [memo] calls for the same key hit.  An [In_progress] marker is
     left alone: the live parse will publish the same value. *)
  let seed t key v =
    Mutex.lock t.lock;
    (match Hashtbl.find_opt t.table key with
    | Some In_progress -> ()
    | _ -> Hashtbl.replace t.table key (Done v));
    Mutex.unlock t.lock

  let memo t key parse =
    Mutex.lock t.lock;
    let rec await () =
      match Hashtbl.find_opt t.table key with
      | Some (Done v) ->
          Mutex.unlock t.lock;
          Atomic.incr t.hits;
          Obs.incr "phplang.parse_cache.hit";
          v
      | Some In_progress ->
          Condition.wait t.cond t.lock;
          await ()
      | None -> (
          Hashtbl.replace t.table key In_progress;
          Mutex.unlock t.lock;
          match parse () with
          | v ->
              Mutex.lock t.lock;
              Hashtbl.replace t.table key (Done v);
              Condition.broadcast t.cond;
              Mutex.unlock t.lock;
              Atomic.incr t.misses;
              Obs.incr "phplang.parse_cache.miss";
              v
          | exception e ->
              (* Exception safety: drop the [In_progress] marker and wake
                 the waiters, otherwise they block on the condition
                 variable forever.  The entry is simply retried by the
                 next caller — "parsed exactly once" only holds for
                 parses that return. *)
              let bt = Printexc.get_raw_backtrace () in
              Mutex.lock t.lock;
              Hashtbl.remove t.table key;
              Condition.broadcast t.cond;
              Mutex.unlock t.lock;
              Obs.incr "phplang.parse_cache.aborted";
              Printexc.raise_with_backtrace e bt)
    in
    await ()
end

(* The disk-tier ({!Store}) key of a parse artifact: it depends on the
   path (recorded in positions), the source bytes and the parser nesting
   fuel ([--budget-parse-depth]); nothing else reaches the front end. *)
let parse_store_key ~path ~source =
  Digest.combine
    [ path; Digest.hex source; string_of_int (Parser.nesting_limit ()) ]

(** Parse [f], memoized in [cache] (default: {!Parse_cache.shared}) unless
    the cache is globally disabled.  [Error _] is a parse failure — cached
    too, so a broken file is diagnosed once, not once per tool.  Lexer
    errors, parse errors and nesting-budget exhaustion all land here as
    structured {!parse_error}s; only genuinely unexpected exceptions (a
    front-end bug) escape, and those the analyzers' crash barriers catch. *)
let parse_file ?(cache = Parse_cache.shared) (f : file) :
    (Ast.program, parse_error) result =
  let parse () =
    match Parser.parse_source ~file:f.path f.source with
    | prog -> Ok prog
    | exception Parser.Parse_error (msg, _) -> Error (Syntax msg)
    | exception Lexer.Error (msg, line) ->
        Error (Syntax (Printf.sprintf "lexical error on line %d: %s" line msg))
    | exception Parser.Depth_exceeded (msg, _) -> Error (Over_budget msg)
  in
  (* Disk tier ({!Store}), under {!parse_store_key}.  The disk lookup sits
     inside the in-memory memo's miss path, so the exactly-once-per-process
     guarantee is untouched — a disk hit simply replaces the parse work by
     an unmarshal. *)
  let parse_via_store () =
    if not (Store.enabled ()) then parse ()
    else begin
      let key = parse_store_key ~path:f.path ~source:f.source in
      match Store.get ~ns:"parse" ~key with
      | Some v -> v
      | None ->
          let v = parse () in
          Store.put ~ns:"parse" ~key v;
          v
    end
  in
  if not (Parse_cache.enabled ()) then parse_via_store ()
  else Parse_cache.memo cache (f.path, Digest.string f.source) parse_via_store

(** Result of {!include_closure} — see the .mli for field semantics. *)
type closure = {
  cl_paths : string list;
  cl_max_depth : int;
  cl_unresolved : int;
  cl_truncated : bool;
}

(** Transitive include closure of [path] within project [t], parsed on
    demand with [parse].  Cycles are cut by the visited set; missing files
    (WordPress core, typically) are tolerated, counted as unresolved and
    still part of the closure.  [max_depth]/[max_files] are safety caps:
    when either is hit the walk stops expanding and the closure is marked
    truncated instead of recursing without bound. *)
let include_closure ?(max_depth = max_int) ?(max_files = max_int) ~parse t
    path =
  Obs.span "phplang.includes" @@ fun () ->
  let visited = Hashtbl.create 16 in
  let deepest = ref 0 in
  let unresolved = ref 0 in
  let truncated = ref false in
  let rec go depth p =
    if Hashtbl.mem visited p then ()
    else if depth > max_depth || Hashtbl.length visited >= max_files then
      truncated := true
    else begin
      Hashtbl.add visited p ();
      if depth > !deepest then deepest := depth;
      match find t p with
      | None ->
          incr unresolved;
          Obs.incr "phplang.includes.unresolved"
      | Some f -> (
          match parse f with
          | Some prog -> List.iter (go (depth + 1)) (include_targets prog)
          | None -> ())
    end
  in
  go 0 path;
  {
    cl_paths =
      Hashtbl.fold (fun k () acc -> k :: acc) visited [] |> List.sort compare;
    cl_max_depth = !deepest;
    cl_unresolved = !unresolved;
    cl_truncated = !truncated;
  }

(* ------------------------------------------------------------------ *)
(* Sub-file incremental re-parse                                      *)
(* ------------------------------------------------------------------ *)

(** Per-file incremental parsing sessions: an edit re-lexes only the
    damaged region ({!Lexer.relex}), maps the damaged significant tokens to
    the enclosing top-level statement, re-parses just that region
    ({!Parser.parse_region}) and splices the fresh statements into the
    cached AST with the reused suffix's positions rebased
    ({!Ast.shift_lines}).  Any ambiguity — damage touching several
    top-level statements, region parse overrunning its boundary, a
    previously failed parse — falls back to a whole-file parse, counted in
    [parser.region.fallback].

    Every update publishes its result into {!Parse_cache.shared} and the
    disk {!Store} under exactly the keys {!parse_file} uses, so the
    analyzers downstream hit transparently. *)
module Increment = struct
  type entry = {
    mutable ie_source : string;
    mutable ie_lexed : Lexer.lexed option;  (* None after a lex error *)
    mutable ie_sig : Token.t array;  (* significant tokens, incl T_EOF *)
    mutable ie_sig_raw : int array;  (* raw token index per sig token *)
    mutable ie_result : (Ast.program, parse_error) result;
    mutable ie_spans : Parser.top_span array;  (* valid when Ok *)
  }

  type session = { ses_files : (string, entry) Hashtbl.t }

  let create () = { ses_files = Hashtbl.create 16 }

  let sig_of (lx : Lexer.lexed) : Token.t array * int array =
    let n = Array.length lx.Lexer.lx_tokens in
    let toks = ref [] and raws = ref [] in
    for i = n - 1 downto 0 do
      let t = lx.Lexer.lx_tokens.(i) in
      if Lexer.is_significant t then begin
        toks := t :: !toks;
        raws := i :: !raws
      end
    done;
    (Array.of_list !toks, Array.of_list !raws)

  (* Number of sig tokens whose raw index is < [bound]; [raw] is strictly
     increasing. *)
  let count_sig_below (raw : int array) bound =
    let lo = ref 0 and hi = ref (Array.length raw) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if raw.(mid) < bound then lo := mid + 1 else hi := mid
    done;
    !lo

  let lex_error_result line msg : (Ast.program, parse_error) result =
    Error (Syntax (Printf.sprintf "lexical error on line %d: %s" line msg))

  let parse_sig ~path (sigt : Token.t array) :
      (Ast.program, parse_error) result * Parser.top_span array =
    match Parser.parse_program_spans ~file:path sigt with
    | prog, spans -> (Ok prog, spans)
    | exception Parser.Parse_error (msg, _) -> (Error (Syntax msg), [||])
    | exception Parser.Depth_exceeded (msg, _) ->
        (Error (Over_budget msg), [||])

  (* Whole-file lex + parse producing exactly [parse_file]'s result value
     (same error mapping), plus the incremental bookkeeping. *)
  let full ~path ~source : entry =
    match Lexer.lex_all source with
    | exception Lexer.Error (msg, line) ->
        {
          ie_source = source;
          ie_lexed = None;
          ie_sig = [||];
          ie_sig_raw = [||];
          ie_result = lex_error_result line msg;
          ie_spans = [||];
        }
    | lexed ->
        let sigt, sigraw = sig_of lexed in
        let result, spans = parse_sig ~path sigt in
        {
          ie_source = source;
          ie_lexed = Some lexed;
          ie_sig = sigt;
          ie_sig_raw = sigraw;
          ie_result = result;
          ie_spans = spans;
        }

  let token_eq (a : Token.t) (b : Token.t) =
    a.Token.kind = b.Token.kind && String.equal a.Token.lexeme b.Token.lexeme

  (* Attempt the sub-file re-parse of [nsig] against the previous entry.
     Returns the spliced (program, spans), or None when any splice
     ambiguity demands the whole-file fallback. *)
  let try_region (e : entry) ~path (oldprog : Ast.program)
      (info : Lexer.relex_info) (nsig : Token.t array) :
      (Ast.program * Parser.top_span array) option =
    let osig = e.ie_sig and osigraw = e.ie_sig_raw and ospans = e.ie_spans in
    let m_old = Array.length osig and m_new = Array.length nsig in
    let shift = m_new - m_old in
    let ld = info.Lexer.rl_line_delta in
    (* maximal verbatim sig prefix (kind, lexeme and line), seeded from the
       lexer's raw-token reuse: sig tokens below rl_prefix are identical by
       construction, the scan only walks the re-lexed middle *)
    let p = ref (count_sig_below osigraw info.Lexer.rl_prefix) in
    while
      !p < m_old && !p < m_new
      && token_eq osig.(!p) nsig.(!p)
      && osig.(!p).Token.line = nsig.(!p).Token.line
    do
      Stdlib.incr p
    done;
    let prefix = !p in
    (* maximal reused sig suffix: old index j reappears at j + shift with
       lines uniformly shifted by ld *)
    let s = ref (count_sig_below osigraw info.Lexer.rl_old_suffix) in
    while
      !s > 0
      &&
      let j = !s - 1 in
      let nj = j + shift in
      nj >= 0 && nj < m_new
      && token_eq osig.(j) nsig.(nj)
      && nsig.(nj).Token.line = osig.(j).Token.line + ld
    do
      Stdlib.decr s
    done;
    let su = !s in
    if prefix >= m_old && m_old = m_new && prefix >= m_new then
      (* token streams fully identical (lines included): AST unchanged *)
      Some (oldprog, ospans)
    else begin
      (* damaged old window [pfx, sfx); clamp so the matched regions map to
         disjoint ranges of the new stream *)
      let sfx = max su prefix in
      let pfx = min prefix (sfx + shift) in
      if pfx < 0 || sfx > m_old || sfx + shift > m_new then None
      else begin
        (* classify top-level statements against the window *)
        let n_spans = Array.length ospans in
        let dirty = ref [] in
        Array.iteri
          (fun k (sp : Parser.top_span) ->
            if sp.Parser.sp_stop <= pfx then ()
            else if sp.Parser.sp_start >= sfx then ()
            else dirty := k :: !dirty)
          ospans;
        match List.rev !dirty with
        | _ :: _ :: _ -> None (* damage straddles several definitions *)
        | dirty_list -> (
            (* old region to re-parse: the dirty statement's full extent,
               widened to cover the whole damaged window *)
            let r_lo, r_hi =
              match dirty_list with
              | [ k ] ->
                  ( min pfx ospans.(k).Parser.sp_start,
                    max sfx ospans.(k).Parser.sp_stop )
              | _ -> (pfx, sfx)
            in
            let stop_new = r_hi + shift in
            if stop_new < r_lo || stop_new > m_new then None
            else
              (* splice point: statements strictly before / after region *)
              let n_before =
                let c = ref 0 in
                Array.iter
                  (fun (sp : Parser.top_span) ->
                    if sp.Parser.sp_stop <= r_lo then Stdlib.incr c)
                  ospans;
                !c
              in
              let n_after =
                let c = ref 0 in
                Array.iter
                  (fun (sp : Parser.top_span) ->
                    if sp.Parser.sp_start >= r_hi then Stdlib.incr c)
                  ospans;
                !c
              in
              let n_dirty = List.length dirty_list in
              if n_before + n_dirty + n_after <> n_spans then None
              else
                match Parser.parse_region ~file:path nsig ~start:r_lo ~stop:stop_new with
                | None -> None
                | Some (fresh_stmts, fresh_spans) ->
                    Obs.incr "parser.region.reparse";
                    let rec split n acc = function
                      | rest when n = 0 -> (List.rev acc, rest)
                      | x :: rest -> split (n - 1) (x :: acc) rest
                      | [] -> (List.rev acc, [])
                    in
                    let before, rest = split n_before [] oldprog in
                    let _, after = split n_dirty [] rest in
                    let program =
                      before @ fresh_stmts @ Ast.shift_lines ld after
                    in
                    let spans =
                      Array.of_list
                        (List.concat
                           [
                             Array.to_list (Array.sub ospans 0 n_before);
                             fresh_spans;
                             Array.to_list
                               (Array.sub ospans (n_before + n_dirty) n_after)
                             |> List.map (fun (sp : Parser.top_span) ->
                                    {
                                      Parser.sp_start = sp.Parser.sp_start + shift;
                                      sp_stop = sp.Parser.sp_stop + shift;
                                    });
                           ])
                    in
                    Some (program, spans))
      end
    end

  (* One file update: relex incrementally, splice or fall back, publish. *)
  let compute (e : entry option) ~path ~source : entry =
    match e with
    | Some ({ ie_lexed = Some oldlx; ie_result = Ok oldprog; _ } as e) -> (
        match Lexer.relex oldlx source with
        | exception Lexer.Error (msg, line) ->
            {
              ie_source = source;
              ie_lexed = None;
              ie_sig = [||];
              ie_sig_raw = [||];
              ie_result = lex_error_result line msg;
              ie_spans = [||];
            }
        | nlx, info -> (
            let nsig, nsigraw = sig_of nlx in
            let spliced =
              match try_region e ~path oldprog info nsig with
              | v -> v
              | exception (Parser.Parse_error _ | Parser.Depth_exceeded _) ->
                  (* the region parse failed where the full parse would
                     fail too; run the fallback to produce the identical
                     structured error *)
                  None
            in
            match spliced with
            | Some (program, spans) ->
                {
                  ie_source = source;
                  ie_lexed = Some nlx;
                  ie_sig = nsig;
                  ie_sig_raw = nsigraw;
                  ie_result = Ok program;
                  ie_spans = spans;
                }
            | None ->
                Obs.incr "parser.region.fallback";
                let result, spans = parse_sig ~path nsig in
                {
                  ie_source = source;
                  ie_lexed = Some nlx;
                  ie_sig = nsig;
                  ie_sig_raw = nsigraw;
                  ie_result = result;
                  ie_spans = spans;
                }))
    | Some _ | None -> full ~path ~source

  (* Publish into the same two cache tiers [parse_file] reads, under its
     exact keys, so downstream analyzers hit without code changes. *)
  let seed_caches ~path ~source result =
    if Parse_cache.enabled () then
      Parse_cache.seed Parse_cache.shared (path, Digest.string source) result;
    if Store.enabled () then
      Store.put ~ns:"parse" ~key:(parse_store_key ~path ~source) result

  let update session ~path ~source : (Ast.program, parse_error) result =
    match Hashtbl.find_opt session.ses_files path with
    | Some e when String.equal e.ie_source source -> e.ie_result
    | prev ->
        let e = compute prev ~path ~source in
        Hashtbl.replace session.ses_files path e;
        seed_caches ~path ~source e.ie_result;
        e.ie_result

  let forget session path = Hashtbl.remove session.ses_files path

  let result session path =
    Option.map
      (fun e -> e.ie_result)
      (Hashtbl.find_opt session.ses_files path)
end

(* ------------------------------------------------------------------ *)
(* Loading a project from the filesystem                              *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec collect_php_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort String.compare
  |> List.concat_map (fun entry ->
         let path = Filename.concat dir entry in
         if Sys.is_directory path then collect_php_files path
         else if Filename.check_suffix entry ".php" then [ path ]
         else [])

(** Load a target from disk: a directory becomes a project of all its
    [.php] files (deterministic order: lexicographic per directory level,
    paths relative to the target), a single file a one-file project.  This
    is the one target reader shared by [phpsafe_cli] and the
    [phpsafe_serve] client, so both build byte-identical projects — the
    precondition for their reports being byte-identical. *)
let load target =
  if Sys.is_directory target then
    let files = collect_php_files target in
    let strip path =
      let prefix = target ^ Filename.dir_sep in
      if
        String.length path > String.length prefix
        && String.sub path 0 (String.length prefix) = prefix
      then String.sub path (String.length prefix)
             (String.length path - String.length prefix)
      else path
    in
    make ~name:(Filename.basename target)
      (List.map (fun p -> { path = strip p; source = read_file p }) files)
  else
    make ~name:(Filename.basename target)
      [ { path = Filename.basename target; source = read_file target } ]
