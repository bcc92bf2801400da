(** Multi-file plugin model: a named collection of PHP files with
    [include]/[require] resolution (paper §III.B). *)

type file = { path : string; source : string }

type t = { name : string; files : file list }

val make : name:string -> file list -> t

val find : t -> string -> file option
(** Look a file up by its exact project-relative path. *)

val file_count : t -> int

val loc : t -> int
(** Sum of {!Loc.count} over all files of a project. *)

(** Why a parse failed.  [Syntax] is a lexer/parser rejection; [Over_budget]
    means the nesting-depth fuel (see {!Parser.set_nesting_limit}) ran out —
    analyzers report the two differently in the robustness table. *)
type parse_error =
  | Syntax of string
  | Over_budget of string

val parse_error_message : parse_error -> string

(** What phpSAFE's include-closure memory budget (paper §V.E) and its
    hoisting (§III.B) read of one file.  Every field depends only on the
    file's path and source, so they are computed once per parse-memo entry
    (see {!facts}). *)
type facts = {
  includes : string list;
      (** {!include_targets} of the parse; [[]] for a failed parse *)
  loc : int;  (** {!Loc.count} of the source *)
  defs : Ast.stmt list;
      (** the parse's [FuncDef] and [ClassDef] statements in pre-order,
          from any statement nesting (function, method and class bodies,
          branches) but not from closure bodies; [[]] for a failed
          parse *)
}

(** Content-keyed parse memoization shared by analyzers and domains:
    entries are keyed by file path + source digest, so each distinct file
    is parsed exactly once per process even when three tools (or several
    domains) visit it.  Each entry records the nesting limit
    ({!Parser.nesting_limit}) it was parsed or seeded under; a lookup
    under another limit is a miss that re-parses and replaces it.  Safe to
    use concurrently: the table is mutex-guarded and concurrent misses for
    the same key parse only once.

    An entry also carries its file's {!facts}, empty until the first
    {!Project.facts} call on a {!Project.parse} that reaches it fills them;
    they are dropped with the entry ({!forget}, {!clear}, or a re-parse
    under another nesting limit).

    An entry that {!Project.parse} or {!Increment.update} publishes also
    keeps the source it was parsed from, so a later parse of the same
    bytes at the same path (the same string, or an equal one) reuses its
    digest instead of computing an MD5.  The source goes with the entry:
    on {!forget}, {!clear}, a {!seed} over it, or a re-parse.  A seeded
    entry (or one published by {!memo}) keeps none and is found through
    the digest.  Concurrent parses of the same new bytes compute its MD5
    once. *)
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
  (** Publish a result computed outside the memo, so later {!memo} calls
      for the key hit.  A key currently being parsed is left alone — the
      live parse publishes the same value.  A seeded entry has no source,
      so its {!facts} are filled on first demand like a parsed one's.  No
      library code seeds; this is kept for the benchmark's traced front
      end ([perfbench/passes.ml]), which lexes and parses as separate timed
      layers and then publishes the result. *)

  val forget : t -> string * string -> unit
  (** Drop the key's cached result, facts and source.  A key currently
      being parsed is left alone. *)

  val retained : t -> string -> int
  (** How many sources the cache keeps for a path: one per entry of the
      path that keeps its source. *)

  val set_enabled : bool -> unit
  (** Globally enable/disable memoization ([true] initially).  Flip only
      from the main domain while no analysis is running. *)

  val enabled : unit -> bool

  val hits : t -> int
  (** Parses avoided because the entry was already cached. *)

  val misses : t -> int
  (** Actual parses performed through this cache. *)

  val clear : t -> unit
  (** Drop all entries (their facts with them) and reset the hit/miss
      counters. *)
end

type parsed
(** One file's parse, as {!parse} found or put it in the memo. *)

val parse : ?cache:Parse_cache.t -> file -> parsed
(** Parse one project file, memoized in [cache] (default
    {!Parse_cache.shared}) unless the cache is disabled: one memo lookup
    answers both {!result} and {!facts}.  The key's digest is a retained
    source's when the memo keeps the file's bytes for its path, else one
    MD5 of the source; each MD5 a parse key computes
    (memo or {!Store}) bumps the [phplang.parse_cache.digests] counter. *)

val result : parsed -> (Ast.program, parse_error) result
(** [Error _] is a structured parse failure (lexical/syntax error or
    nesting-budget exhaustion); failures are cached too. *)

val facts : parsed -> facts
(** The file's facts, computed from the file {!parse} was given on the
    first demand per memo entry and kept in the entry, so a warm
    re-analysis computes none; each computation bumps the
    [phplang.parse_cache.facts] counter.  With the memo disabled they are
    computed once per {!parse}.  Safe from any domain. *)

val parse_file :
  ?cache:Parse_cache.t -> file -> (Ast.program, parse_error) result
(** [result (parse ?cache f)]. *)

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
  targets:(file -> string list) ->
  t ->
  string ->
  closure
(** [include_closure ~targets t path] is the transitive include closure of
    [path], following [targets f] out of each member file [f] ({!find}'s
    file for the member's path; typically the [includes] of its
    {!facts}).  Cycles are cut; missing files are tolerated but counted as
    unresolved (and still part of the closure).  [max_depth] bounds the
    include-chain depth and [max_files] the closure size (both default to
    unlimited); exceeding either stops the walk and marks the closure
    truncated — the caller reports that as a budget exhaustion. *)

(** Edit sessions (the [--watch]/daemon hot path): each path's last
    source.  {!Increment.update} is one streaming parse of the new source
    through {!Parse_cache.shared}, under {!parse_file}'s key and
    nesting-limit check, so downstream analyzers hit the memo
    transparently; the memo entry of the source an update replaces is
    dropped ({!Parse_cache.forget}, found through its retained source
    without hashing it again), so a long session holds one parse and one
    retained source per path, and an update computes at most one MD5.  The disk {!Store} is neither read nor written, since the
    memo answers first.  With the memo disabled, an update parses
    directly. *)
module Increment : sig
  type session

  val create : unit -> session

  val update :
    session -> path:string -> source:string -> (Ast.program, parse_error) result
  (** Bring [path] up to date with [source] and record it as the path's
      last source.  When [source] replaces another one, the memo entry of
      the old source is dropped.  Returns exactly what {!parse_file} would
      for the same input, under the current nesting limit. *)

  val forget : session -> string -> unit
  (** Drop a file (deleted from the project). *)

  val source : session -> string -> string option
  (** The source [path] was last updated to, if the session holds it. *)

  val paths : session -> string list
  (** Every path the session holds, in no particular order. *)
end

val load : string -> t
(** [load target] reads a project from disk: a directory becomes a project
    of all its [.php] files (recursive, lexicographically sorted per
    level, paths relative to the target), a plain file a one-file project;
    the project name is the target's basename.  Shared by [phpsafe_cli]
    and the [phpsafe_serve] client so both sides build identical projects
    from the same target.  Raises [Sys_error] on unreadable paths. *)
