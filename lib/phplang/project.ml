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
    (match e.Ast.e with
    | Ast.IncludeE (_, { Ast.e = Ast.Str path; _ }) -> acc := path :: !acc
    | _ -> ());
    Ast.iter_expr ~expr:visit_expr ~stmt:visit_stmt e
  and visit_stmt s = Ast.iter_stmt ~expr:visit_expr ~stmt:visit_stmt s in
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
  (* [Done (limit, v)]: [v] was parsed (or seeded) under nesting limit
     [limit]; a lookup under another limit is a miss. *)
  type entry =
    | In_progress
    | Done of int * (Ast.program, parse_error) result

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
    | _ -> Hashtbl.replace t.table key (Done (Parser.nesting_limit (), v)));
    Mutex.unlock t.lock

  (* Drop a superseded [Done] entry; a live parse's marker stays, so its
     waiters are still woken by the value it publishes. *)
  let forget t key =
    Mutex.lock t.lock;
    (match Hashtbl.find_opt t.table key with
    | Some (Done _) -> Hashtbl.remove t.table key
    | Some In_progress | None -> ());
    Mutex.unlock t.lock

  let memo t key parse =
    let limit = Parser.nesting_limit () in
    Mutex.lock t.lock;
    let rec await () =
      match Hashtbl.find_opt t.table key with
      | Some (Done (l, v)) when l = limit ->
          Mutex.unlock t.lock;
          Atomic.incr t.hits;
          Obs.incr "phplang.parse_cache.hit";
          v
      | Some In_progress ->
          Condition.wait t.cond t.lock;
          await ()
      | Some (Done _) | None -> (
          Hashtbl.replace t.table key In_progress;
          Mutex.unlock t.lock;
          match parse () with
          | v ->
              Mutex.lock t.lock;
              Hashtbl.replace t.table key (Done (limit, v));
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
    damaged region ({!Lexer.relex}), then runs the parser's top-level loop
    ({!Parser.parse_program}) with statement reuse.  A top-level statement
    of the previous parse is reused, its lines shifted ({!Ast.shift_stmt}),
    wherever its tokens and the one token after them reappear, every line
    moved by the same delta; only the other statements are parsed.  So a
    diff touching k statements re-parses those k, wherever they are.  Such
    updates count in [parser.region.reparse].  Every other update is a
    whole-file parse: a path's first update in the session counts in
    [parser.region.initial]; one after a failed parse, or under a changed
    nesting limit, counts in [parser.region.fallback].

    Every update publishes its result into {!Parse_cache.shared} and the
    disk {!Store} under exactly the keys {!parse_file} uses, so the
    analyzers downstream hit transparently. *)
module Increment = struct
  type entry = {
    ie_source : string;
    ie_limit : int;  (* the nesting limit [ie_result] was parsed under *)
    ie_lexed : Lexer.lexed option;  (* None after a lex error *)
    ie_sig : Token.t array;  (* significant tokens, incl T_EOF *)
    ie_result : (Ast.program, parse_error) result;
    ie_spans : Parser.top_span array;  (* one per statement when Ok *)
  }

  type session = { ses_files : (string, entry) Hashtbl.t }

  let create () = { ses_files = Hashtbl.create 16 }

  let sig_of (lx : Lexer.lexed) : Token.t array =
    Array.fold_right
      (fun t acc -> if Lexer.is_significant t then t :: acc else acc)
      lx.Lexer.lx_tokens []
    |> Array.of_list

  (* The reuse oracle for the parse of [nsig]: an old statement is the
     answer at [i] when its tokens and the one after them match those from
     [i] on in kind and lexeme, the span's lines all moved by one delta.
     Old statements are indexed by their first two lexemes; both lie in
     the compared range, since a span holds at least one token. *)
  let reuser (old : entry) (oldprog : Ast.program) (nsig : Token.t array) =
    let osig = old.ie_sig in
    let key (toks : Token.t array) i =
      (toks.(i).Token.lexeme, toks.(i + 1).Token.lexeme)
    in
    let index = Hashtbl.create (Array.length old.ie_spans) in
    List.iteri
      (fun k s ->
        let sp = old.ie_spans.(k) in
        Hashtbl.add index (key osig sp.Parser.sp_start) (sp, s))
      oldprog;
    (* tokens [0, len) of the span, then the lookahead token [len] *)
    let rec matches o i len d k =
      k > len
      ||
      let a = osig.(o + k) and b = nsig.(i + k) in
      (if a == b then d = 0 || k = len
       else
         a.Token.kind = b.Token.kind
         && String.equal a.Token.lexeme b.Token.lexeme
         && (k = len || b.Token.line = a.Token.line + d))
      && matches o i len d (k + 1)
    in
    let n_new = Array.length nsig in
    fun i ->
      let rec first = function
        | [] -> None
        | ((sp : Parser.top_span), s) :: rest ->
            let o = sp.Parser.sp_start in
            let len = sp.Parser.sp_stop - o in
            let d = nsig.(i).Token.line - osig.(o).Token.line in
            if i + len < n_new && matches o i len d 0 then
              Some ((if d = 0 then s else Ast.shift_stmt d s), i + len)
            else first rest
      in
      first (Hashtbl.find_all index (key nsig i))

  (* Lex [source] with [lex], then parse it (with statement reuse when
     [reuse] is given), producing exactly [parse_file]'s result value
     (same error mapping) plus the incremental bookkeeping. *)
  let build ?reuse ~path ~source lex : entry =
    let limit = Parser.nesting_limit () in
    match lex source with
    | exception Lexer.Error (msg, line) ->
        {
          ie_source = source;
          ie_limit = limit;
          ie_lexed = None;
          ie_sig = [||];
          ie_result =
            Error
              (Syntax (Printf.sprintf "lexical error on line %d: %s" line msg));
          ie_spans = [||];
        }
    | lexed ->
        let sigt = sig_of lexed in
        if reuse <> None then Obs.incr "parser.region.reparse";
        let reuse = Option.map (fun r -> r sigt) reuse in
        let result, spans =
          match Parser.parse_program ?reuse ~file:path sigt with
          | prog, spans -> (Ok prog, spans)
          | exception Parser.Parse_error (msg, _) -> (Error (Syntax msg), [||])
          | exception Parser.Depth_exceeded (msg, _) ->
              (Error (Over_budget msg), [||])
        in
        {
          ie_source = source;
          ie_limit = limit;
          ie_lexed = Some lexed;
          ie_sig = sigt;
          ie_result = result;
          ie_spans = spans;
        }

  (* One file update: statement reuse against the previous [Ok] parse
     under the same nesting limit, else a whole-file parse. *)
  let compute (prev : entry option) ~path ~source : entry =
    match prev with
    | None ->
        Obs.incr "parser.region.initial";
        build ~path ~source Lexer.lex_all
    | Some ({ ie_lexed = Some oldlx; ie_result = Ok oldprog; _ } as e)
      when e.ie_limit = Parser.nesting_limit () ->
        build ~reuse:(reuser e oldprog) ~path ~source (Lexer.relex oldlx)
    | Some _ ->
        Obs.incr "parser.region.fallback";
        build ~path ~source Lexer.lex_all

  (* Publish into the in-memory memo [parse_file] reads first, under its
     exact key, so downstream analyzers hit without code changes, and
     evict the parse of the source it replaces, which no later lookup of
     the path asks for.  The disk tier is not written: in this process the
     memo always answers before it. *)
  let seed_cache (prev : entry option) ~path ~source result =
    if Parse_cache.enabled () then begin
      (match prev with
      | Some old when not (String.equal old.ie_source source) ->
          Parse_cache.forget Parse_cache.shared
            (path, Digest.string old.ie_source)
      | _ -> ());
      Parse_cache.seed Parse_cache.shared (path, Digest.string source) result
    end

  let update session ~path ~source : (Ast.program, parse_error) result =
    match Hashtbl.find_opt session.ses_files path with
    | Some e
      when String.equal e.ie_source source
           && e.ie_limit = Parser.nesting_limit () ->
        e.ie_result
    | prev ->
        let e = compute prev ~path ~source in
        Hashtbl.replace session.ses_files path e;
        seed_cache prev ~path ~source e.ie_result;
        e.ie_result

  let forget session path = Hashtbl.remove session.ses_files path

  let source session path =
    Option.map (fun e -> e.ie_source) (Hashtbl.find_opt session.ses_files path)

  let paths session =
    Hashtbl.fold (fun path _ acc -> path :: acc) session.ses_files []

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
