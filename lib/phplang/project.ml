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

let loc t = List.fold_left (fun acc f -> acc + Loc.count f.source) 0 t.files

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

(** What the include budget and the hoisting read of one file; see the
    .mli. *)
type facts = { includes : string list; loc : int; defs : Ast.stmt list }

(** The [FuncDef] and [ClassDef] statements of a program, in pre-order,
    from any statement nesting (class bodies included) but not from
    closure bodies: expressions are not entered. *)
let definitions (prog : Ast.program) : Ast.stmt list =
  let acc = ref [] in
  let rec visit (s : Ast.stmt) =
    (match s.Ast.s with
    | Ast.FuncDef _ | Ast.ClassDef _ -> acc := s :: !acc
    | _ -> ());
    Ast.iter_stmt ~expr:ignore ~stmt:visit s
  in
  List.iter visit prog;
  List.rev !acc

(* The MD5 of a source, for a parse key (memo or {!Store}); each one
   computed is counted. *)
let source_digest source =
  Obs.incr "phplang.parse_cache.digests";
  Digest.string source

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
    parallelism.  A cell's [facts] slot is filled after publication, by
    whichever reader first needs it; two domains racing there compute the
    same pure value and either write wins.

    Retained sources: an entry that a parse given its source publishes
    ({!memo_source}) keeps that source in [sources], next to its digest,
    from the moment its marker goes in; a later parse of the same bytes at
    the same path finds the key by a string comparison instead of a fresh
    MD5.  A source lives exactly as long as its entry: replacing, seeding,
    forgetting or clearing the entry, or an aborted parse, drops it.  The
    MD5 of a new source is taken under the lock, in the same critical
    section that publishes the entry's marker, so concurrent parses of the
    same new bytes hash them once and the [phplang.parse_cache.digests]
    counter does not depend on the pool size. *)
module Parse_cache = struct
  (* [result] was parsed (or seeded) under nesting limit [limit]; a lookup
     under another limit is a miss. *)
  type cell = {
    limit : int;
    result : (Ast.program, parse_error) result;
    facts : facts option Atomic.t;
  }

  type entry = In_progress | Done of cell

  let cell limit result = { limit; result; facts = Atomic.make None }

  type t = {
    table : (string * string, entry) Hashtbl.t;  (** (path, digest) *)
    sources : (string, (string * string) list) Hashtbl.t;
        (** path -> (digest, source) of each entry of the path that keeps
            its source, newest first *)
    lock : Mutex.t;
    cond : Condition.t;
    hits : int Atomic.t;
    misses : int Atomic.t;
  }

  let create () =
    {
      table = Hashtbl.create 256;
      sources = Hashtbl.create 256;
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
    Hashtbl.reset t.sources;
    Mutex.unlock t.lock;
    Atomic.set t.hits 0;
    Atomic.set t.misses 0

  (* [kept], [drop_source], [keep_source] and [find_digest] run under the
     lock. *)

  let kept t path = Option.value ~default:[] (Hashtbl.find_opt t.sources path)

  (* the key's entry no longer keeps a source *)
  let drop_source t (path, digest) =
    match
      List.filter (fun (d, _) -> not (String.equal d digest)) (kept t path)
    with
    | [] -> Hashtbl.remove t.sources path
    | rest -> Hashtbl.replace t.sources path rest

  (* the key's entry keeps [source] *)
  let keep_source t ((path, digest) as key) source =
    drop_source t key;
    Hashtbl.replace t.sources path ((digest, source) :: kept t path)

  (* the digest of an entry of [path] that keeps [source]'s bytes;
     [String.equal] answers at once on the same string and compares
     lengths before bytes *)
  let find_digest t ~path ~source =
    Option.map fst
      (List.find_opt (fun (_, s) -> String.equal s source) (kept t path))

  let known_digest t ~path ~source =
    Mutex.lock t.lock;
    let d = find_digest t ~path ~source in
    Mutex.unlock t.lock;
    d

  let retained t path =
    Mutex.lock t.lock;
    let n = List.length (kept t path) in
    Mutex.unlock t.lock;
    n

  (* Publish a result computed outside the memo so later [memo] calls for
     the same key hit.  An [In_progress] marker is left alone: the live
     parse will publish the same value. *)
  let seed t key v =
    Mutex.lock t.lock;
    (match Hashtbl.find_opt t.table key with
    | Some In_progress -> ()
    | _ ->
        Hashtbl.replace t.table key (Done (cell (Parser.nesting_limit ()) v));
        drop_source t key);
    Mutex.unlock t.lock

  (* Drop a superseded [Done] entry; a live parse's marker stays, so its
     waiters are still woken by the value it publishes. *)
  let forget t key =
    Mutex.lock t.lock;
    (match Hashtbl.find_opt t.table key with
    | Some (Done _) ->
        Hashtbl.remove t.table key;
        drop_source t key
    | Some In_progress | None -> ());
    Mutex.unlock t.lock

  (* Entered with the lock held, returns with it released: the key's cell,
     parsed on a miss (outside the lock, behind an [In_progress] marker).
     The new entry keeps [source], when given, which is what [parse]
     parses. *)
  let locked_cell ?source t key parse =
    let limit = Parser.nesting_limit () in
    let rec await () =
      match Hashtbl.find_opt t.table key with
      | Some (Done c) when c.limit = limit ->
          Mutex.unlock t.lock;
          Atomic.incr t.hits;
          Obs.incr "phplang.parse_cache.hit";
          c
      | Some In_progress ->
          Condition.wait t.cond t.lock;
          await ()
      | Some (Done _) | None -> (
          Hashtbl.replace t.table key In_progress;
          (match source with
          | Some src -> keep_source t key src
          | None -> drop_source t key);
          Mutex.unlock t.lock;
          match parse () with
          | v ->
              let c = cell limit v in
              Mutex.lock t.lock;
              Hashtbl.replace t.table key (Done c);
              Condition.broadcast t.cond;
              Mutex.unlock t.lock;
              Atomic.incr t.misses;
              Obs.incr "phplang.parse_cache.miss";
              c
          | exception e ->
              (* Exception safety: drop the [In_progress] marker and wake
                 the waiters, otherwise they block on the condition
                 variable forever.  The entry is simply retried by the
                 next caller — "parsed exactly once" only holds for
                 parses that return. *)
              let bt = Printexc.get_raw_backtrace () in
              Mutex.lock t.lock;
              Hashtbl.remove t.table key;
              drop_source t key;
              Condition.broadcast t.cond;
              Mutex.unlock t.lock;
              Obs.incr "phplang.parse_cache.aborted";
              Printexc.raise_with_backtrace e bt)
    in
    await ()

  let memo t key parse =
    Mutex.lock t.lock;
    (locked_cell t key parse).result

  (* The cell of [source] at [path], keyed by a retained source's digest
     or else by a fresh MD5; [parse] gets the digest. *)
  let memo_source t ~path ~source parse =
    Mutex.lock t.lock;
    let digest =
      match find_digest t ~path ~source with
      | Some d -> d
      | None -> source_digest source
    in
    locked_cell ~source t (path, digest) (fun () -> parse digest)
end

(* The disk-tier ({!Store}) key of a parse artifact: it depends on the
   path (recorded in positions), the source bytes (through [digest], their
   raw MD5) and the parser nesting fuel ([--budget-parse-depth]); nothing
   else reaches the front end. *)
let parse_store_key ~path ~digest =
  Digest.combine
    [
      path;
      Stdlib.Digest.to_hex digest;
      string_of_int (Parser.nesting_limit ());
    ]

(* One parse of [f], every front-end failure mapped to a {!parse_error}:
   lexer errors, parse errors and nesting-budget exhaustion.  Only
   genuinely unexpected exceptions (a front-end bug) escape, and those the
   analyzers' crash barriers catch. *)
let parse_result (f : file) : (Ast.program, parse_error) result =
  match Parser.parse_source ~file:f.path f.source with
  | prog -> Ok prog
  | exception Parser.Parse_error (msg, _) -> Error (Syntax msg)
  | exception Lexer.Error (msg, line) ->
      Error (Syntax (Printf.sprintf "lexical error on line %d: %s" line msg))
  | exception Parser.Depth_exceeded (msg, _) -> Error (Over_budget msg)

(** One file's parse as the memo holds it: the cell carries the facts
    slot, the file is what fills it. *)
type parsed = { file : file; cell : Parse_cache.cell }

(** Parse [f], memoized in [cache] (default: {!Parse_cache.shared}) unless
    the cache is globally disabled.  A [result] of [Error _] is a parse
    failure — cached too, so a broken file is diagnosed once, not once per
    tool. *)
let parse ?(cache = Parse_cache.shared) (f : file) : parsed =
  (* Disk tier ({!Store}), under {!parse_store_key}.  The disk lookup sits
     inside the in-memory memo's miss path, so the exactly-once-per-process
     guarantee is untouched — a disk hit simply replaces the parse work by
     an unmarshal. *)
  let parse_via_store digest =
    if not (Store.enabled ()) then parse_result f
    else begin
      let key = parse_store_key ~path:f.path ~digest:(Lazy.force digest) in
      match Store.get ~ns:"parse" ~key with
      | Some v -> v
      | None ->
          let v = parse_result f in
          Store.put ~ns:"parse" ~key v;
          v
    end
  in
  let cell =
    if not (Parse_cache.enabled ()) then
      Parse_cache.cell (Parser.nesting_limit ())
        (parse_via_store (lazy (source_digest f.source)))
    else
      Parse_cache.memo_source cache ~path:f.path ~source:f.source (fun digest ->
          parse_via_store (Lazy.from_val digest))
  in
  { file = f; cell }

let result p = p.cell.Parse_cache.result

(** The file's facts, computed on the first demand per memo entry (so a
    seeded entry is filled here too, from the file in hand). *)
let facts p =
  match Atomic.get p.cell.Parse_cache.facts with
  | Some x -> x
  | None ->
      Obs.incr "phplang.parse_cache.facts";
      let includes, defs =
        match result p with
        | Ok prog -> (include_targets prog, definitions prog)
        | Error _ -> ([], [])
      in
      let x = { includes; loc = Loc.count p.file.source; defs } in
      Atomic.set p.cell.Parse_cache.facts (Some x);
      x

let parse_file ?cache f = result (parse ?cache f)

(** Result of {!include_closure} — see the .mli for field semantics. *)
type closure = {
  cl_paths : string list;
  cl_max_depth : int;
  cl_unresolved : int;
  cl_truncated : bool;
}

(** Transitive include closure of [path] within project [t], following
    [targets] of each member file.  Cycles are cut by the visited set;
    missing files (WordPress core, typically) are tolerated, counted as
    unresolved and still part of the closure.  [max_depth]/[max_files] are
    safety caps: when either is hit the walk stops expanding and the
    closure is marked truncated instead of recursing without bound. *)
let include_closure ?(max_depth = max_int) ?(max_files = max_int) ~targets t
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
      | Some f -> List.iter (go (depth + 1)) (targets f)
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
(* Edit sessions                                                      *)
(* ------------------------------------------------------------------ *)

(** An edit session is each path's last source.  An update is one
    streaming parse through {!Parse_cache.shared}, under {!parse_file}'s
    key and nesting-limit check, so the analyzers downstream hit the memo;
    the parse of the source it replaces is evicted, found through that
    source's retained bytes rather than a second MD5.  The disk {!Store}
    is skipped: in this process the memo always answers before it. *)
module Increment = struct
  type session = (string, string) Hashtbl.t

  let create () : session = Hashtbl.create 16

  let update session ~path ~source : (Ast.program, parse_error) result =
    let parse () = parse_result { path; source } in
    let result =
      if not (Parse_cache.enabled ()) then parse ()
      else begin
        let cache = Parse_cache.shared in
        (match Hashtbl.find_opt session path with
        | Some old when not (String.equal old source) ->
            (* the replaced source's entry is found by its retained bytes;
               without them it is gone already, or was seeded over *)
            Option.iter
              (fun digest -> Parse_cache.forget cache (path, digest))
              (Parse_cache.known_digest cache ~path ~source:old)
        | _ -> ());
        (Parse_cache.memo_source cache ~path ~source (fun _ -> parse ()))
          .Parse_cache.result
      end
    in
    Hashtbl.replace session path source;
    result

  let forget = Hashtbl.remove
  let source = Hashtbl.find_opt
  let paths session = Hashtbl.fold (fun path _ acc -> path :: acc) session []
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
