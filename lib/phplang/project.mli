(** Multi-file plugin model: a named collection of PHP files with
    [include]/[require] resolution (paper §III.B). *)

type file = { path : string; source : string }

type t = { name : string; files : file list }

val make : name:string -> file list -> t

val find : t -> string -> file option
(** Look a file up by its exact project-relative path. *)

val file_count : t -> int

(** Why a parse failed.  [Syntax] is a lexer/parser rejection; [Over_budget]
    means the nesting-depth fuel (see {!Parser.set_nesting_limit}) ran out —
    analyzers report the two differently in the robustness table. *)
type parse_error =
  | Syntax of string
  | Over_budget of string

val parse_error_message : parse_error -> string

(** Content-keyed parse memoization shared by analyzers and domains:
    entries are keyed by file path + source digest, so each distinct file
    is parsed exactly once per process even when three tools (or several
    domains) visit it.  Each entry records the nesting limit
    ({!Parser.nesting_limit}) it was parsed or seeded under; a lookup
    under another limit is a miss that re-parses and replaces it.  Safe to use concurrently: the table is
    mutex-guarded and concurrent misses for the same key parse only once. *)
module Parse_cache : sig
  type t

  val create : unit -> t

  val shared : t
  (** Process-wide default cache used by {!parse_file}. *)

  val memo :
    t ->
    string * string ->
    (unit -> (Ast.program, parse_error) result) ->
    (Ast.program, parse_error) result
  (** [memo t (path, digest) parse] returns the cached entry for the key,
      or runs [parse] (outside the lock, publishing an in-progress marker
      so concurrent requests wait rather than parse twice) and caches its
      result.  Exception-safe: if [parse] raises, the marker is removed,
      waiters are woken (the next caller retries), and the exception is
      re-raised with its backtrace. *)

  val seed :
    t -> string * string -> (Ast.program, parse_error) result -> unit
  (** Publish a result computed outside the memo (the incremental
      pipeline), so later {!memo} calls for the key hit.  A key currently
      being parsed is left alone — the live parse publishes the same
      value. *)

  val forget : t -> string * string -> unit
  (** Drop the key's cached result.  A key currently being parsed is left
      alone. *)

  val set_enabled : bool -> unit
  (** Globally enable/disable memoization ([true] initially).  Flip only
      from the main domain while no analysis is running. *)

  val enabled : unit -> bool

  val hits : t -> int
  (** Parses avoided because the entry was already cached. *)

  val misses : t -> int
  (** Actual parses performed through this cache. *)

  val clear : t -> unit
  (** Drop all entries and reset the hit/miss counters. *)
end

val parse_file :
  ?cache:Parse_cache.t -> file -> (Ast.program, parse_error) result
(** Parse one project file, memoized in [cache] (default
    {!Parse_cache.shared}) unless the cache is disabled.  [Error _] is a
    structured parse failure (lexical/syntax error or nesting-budget
    exhaustion); failures are cached too. *)

val include_targets : Ast.program -> string list
(** Literal include targets of a program, in source order; dynamic include
    arguments are skipped, like the real tools do. *)

(** Result of {!include_closure}. *)
type closure = {
  cl_paths : string list;
      (** reachable paths, sorted, including the entry file and unresolved
          targets *)
  cl_max_depth : int;  (** maximum include depth encountered *)
  cl_unresolved : int;
      (** distinct include targets not present in the project (WordPress
          core files, typically) — each bumps the
          [phplang.includes.unresolved] counter *)
  cl_truncated : bool;
      (** true when a [max_depth]/[max_files] cap stopped the walk *)
}

val include_closure :
  ?max_depth:int ->
  ?max_files:int ->
  parse:(file -> Ast.program option) ->
  t ->
  string ->
  closure
(** [include_closure ~parse t path] is the transitive include closure of
    [path].  Cycles are cut; missing files are tolerated but counted as
    unresolved (and still part of the closure, as before).  [max_depth]
    bounds the include-chain depth and [max_files] the closure size (both
    default to unlimited); exceeding either stops the walk and marks the
    closure truncated — the caller reports that as a budget exhaustion. *)

(** Sub-file incremental re-parse sessions (the [--watch]/daemon hot
    path).  {!Increment.update} re-lexes only an edit's damaged region
    ({!Lexer.relex}) and re-parses with statement reuse
    ({!Parser.parse_program}): a top-level statement of the previous parse
    is reused, lines shifted, wherever its tokens and the one token after
    them reappear with every line moved by one delta.  A diff touching k
    statements re-parses those k, wherever they are; such updates count
    in [parser.region.reparse].  Every other update is a whole-file parse,
    counted in [parser.region.initial] for a path's first update in the
    session and in [parser.region.fallback] after a failed parse or under
    a changed nesting limit.  Results are byte-identical to {!parse_file}
    on the same input and are published into {!Parse_cache.shared} under
    {!parse_file}'s key, so downstream analyzers hit transparently, and
    the memo entry of the source an update replaces is dropped
    ({!Parse_cache.forget}), so a long session holds one parse per path;
    the disk {!Store} is not written, since the memo answers first. *)
module Increment : sig
  type session

  val create : unit -> session

  val update :
    session -> path:string -> source:string -> (Ast.program, parse_error) result
  (** Bring [path] up to date with [source], incrementally when the
      session has seen the file before, and seed the process parse memo.
      When [source] replaces another one, the memo entry of the old
      source is dropped.  Returns exactly what {!parse_file} would for the
      same input, under the current nesting limit. *)

  val forget : session -> string -> unit
  (** Drop a file (deleted from the project); the next update re-parses it
      from scratch. *)

  val source : session -> string -> string option
  (** The source [path] was last updated to, if the session holds it. *)

  val paths : session -> string list
  (** Every path the session holds, in no particular order. *)

  val result :
    session -> string -> (Ast.program, parse_error) result option
  (** Last known result for [path], if the session has seen it. *)

end

val load : string -> t
(** [load target] reads a project from disk: a directory becomes a project
    of all its [.php] files (recursive, lexicographically sorted per
    level, paths relative to the target), a plain file a one-file project;
    the project name is the target's basename.  Shared by [phpsafe_cli]
    and the [phpsafe_serve] client so both sides build identical projects
    from the same target.  Raises [Sys_error] on unreadable paths. *)
