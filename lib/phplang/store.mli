(** Persistent content-addressed artifact store — see store.ml for the
    on-disk frame, layout and safety guarantees. *)

val format_version : int
(** Version stamp of the on-disk format; entries written under any other
    version are invisible (a miss). *)

val set_root : string option -> unit
(** Point the store at a directory (created on demand), or disable it with
    [None].  Call from the main domain before analysis starts. *)

val root : unit -> string option

val enabled : unit -> bool
(** [true] when a root directory is configured.  The initial root comes
    from [PHPSAFE_CACHE_DIR] when set and non-empty. *)

val get : ns:string -> key:string -> 'a option
(** Look up an entry.  [None] when the store is disabled, the entry is
    absent, was written by another format version, or fails verification
    (corrupt/truncated files are misses, never errors).  The caller must
    only read back values under the same [ns]/[key] discipline used to
    [put] them — the type is not checked beyond the digest frame. *)

val put : ns:string -> key:string -> 'a -> unit
(** Persist an entry (atomically: temp file + rename).  The value must be
    closure-free.  Disk faults on the write path — [ENOSPC], [EACCES], a
    short write, an unwritable root (surfacing as [Sys_error] or
    [Unix_error]) — degrade to "not cached" and are counted as a
    [write_error] for the namespace (Obs counter
    [cache.<ns>.write_error]); the temp file, if created, is removed.
    Programming errors (anything outside that set) still propagate. *)

type stats = {
  ns : string;
  hits : int;
  misses : int;
  stores : int;
  write_errors : int;
}

val counters : unit -> stats list
(** Per-namespace hit/miss/store/write-error counts since start (or the
    last {!Obs.reset}), sorted by namespace.  The counts live only in
    {!Obs}, as [cache.<ns>.hit], [.miss], [.store] and [.write_error];
    this is a view of them, safe from any thread. *)

val reset_counters : unit -> unit
(** {!Obs.reset}, kept only for [perfbench/]. *)

val pp_counters : Format.formatter -> unit -> unit

(** {1 Tenant namespacing} *)

val with_tenant : string option -> (unit -> 'a) -> 'a
(** [with_tenant (Some t) f] runs [f] with every namespace prefixed as
    ["t/<ns>"] — on disk a per-tenant directory level, in the counters a
    per-tenant namespace — so the serving daemon's tenants never share
    cache entries.  The prefix is domain-local: set it inside the worker
    that analyzes one request and concurrent requests for other tenants
    are unaffected.  [with_tenant None f] runs [f] with plain namespaces.
    Tenant names are restricted to [A-Za-z0-9_.-] (and must not be ["."]
    or [".."]); anything else raises [Invalid_argument]. *)

val valid_tenant : string -> bool

(** {1 Disk-tier accounting} — a long-running daemon's view of how much
    the store holds, and the lever that keeps it bounded. *)

type disk_stats = { ds_ns : string; ds_entries : int; ds_bytes : int }

val stats : unit -> disk_stats list
(** Per-namespace entry count and payload bytes of the active format
    version on disk, sorted by namespace (per-tenant namespaces appear as
    ["tenant/ns"]).  Empty when the store is disabled. *)

val prune : max_age_s:float -> unit -> int
(** [prune ~max_age_s ()] removes every entry whose mtime is older than
    [max_age_s] seconds, returning how many were removed (each also bumps
    the [cache.pruned] counter).  Concurrent readers are safe: a pruned
    entry is simply a future miss.  Stale [.tmp] write droppings age out
    the same way. *)

type fsck_report = { fk_scanned : int; fk_ok : int; fk_quarantined : int }

val fsck : unit -> fsck_report
(** Verify every entry of the active format version (frame header +
    payload digest — the same check {!get} applies) and move corrupt ones
    to [<root>/quarantine/<ns>__<key>] rather than deleting them, so an
    operator can inspect what rotted.  In-flight [.wip*.tmp] files are
    skipped, and [quarantine/] itself lives outside the [v<N>] tree so it
    is never rescanned.  Each quarantined entry bumps
    [cache.fsck.quarantined].  All-zero report when the store is
    disabled.  Readers stay safe throughout: a quarantined entry is a
    future miss. *)

(** {1 Fault injection} *)

val set_fault_hook : ([ `Read | `Write ] -> string -> unit) option -> unit
(** Install (or clear) a process-global hook called just before the store
    reads or writes an entry file.  A hook that raises simulates a disk
    fault at exactly the points production error handling covers: on
    [`Read] the lookup degrades to a miss, on [`Write] the {!put} becomes
    a counted write error.  For tests and the chaos harness only. *)
