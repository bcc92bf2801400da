(** Observability: hierarchical wall-clock spans, counters and gauges for
    the whole analysis stack, with domain-safe per-worker buffers and three
    exporters (human summary, Chrome trace-event JSON, metrics JSON).

    Counters are always on: {!incr} and {!add} count whether or not
    recording is enabled, and any thread may read them at any time with
    {!counter} and {!counters}.  Spans, events and gauges are recorded only
    while recording is enabled (off by default), so the instrumented hot
    paths pay one atomic load for them and nothing else.  Drivers that want
    a trace call [set_enabled true] before the run and {!snapshot} after it.

    Concurrency model: every domain records spans into its own buffer
    ([Domain.DLS]), so workers spawned by [Sched.map] never contend;
    buffers register themselves in a global list on first use.  Counters
    live in one shard per domain, behind a per-shard mutex because the
    systhreads of a domain share its shard; a reader sums the shards.  When
    a domain exits, its shard is folded into a retired total and dropped,
    so the counts of a joined [Sched.map] are visible to the main domain
    and a long-running process does not accumulate shards.  {!snapshot}
    and {!reset} must be called from a quiescent main domain (no workers
    running), which is exactly the drivers' situation — [Sched.map] joins
    all domains before returning.  The merge is deterministic: counters and
    span aggregates are summed and sorted by name, so a parallel run at any
    pool size produces the same counter values as a sequential one (only
    durations differ); events sort by (domain id, per-domain sequence
    number). *)

module Clock : sig
  val now_ns : unit -> int64
  (** Monotonic clock, nanoseconds ([clock_gettime(CLOCK_MONOTONIC)]).
      Unlike [Sys.time] this is wall time, not process CPU time, so it
      stays correct when work fans out across domains. *)

  val now : unit -> float
  (** {!now_ns} in seconds. *)
end

val set_enabled : bool -> unit
(** Turn span, event and gauge recording on or off (counters are always
    on).  Enabling records the trace epoch: event timestamps in the trace
    export are relative to the [set_enabled true] call.  Flip only from a
    quiescent main domain. *)

val enabled : unit -> bool

val reset : unit -> unit
(** Drop all recorded events, counters, span aggregates and gauges (the
    enabled flag is untouched).  Quiescent main domain only. *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()] inside a named span: a trace event on the
    calling domain's track plus a (count, total duration) aggregate under
    [name].  Spans nest; exceptions close the span and re-raise.  When
    recording is disabled this is exactly [f ()]. *)

val incr : string -> unit
(** Add 1 to a named counter, whether or not recording is enabled. *)

val add : string -> int -> unit
(** Add [n] to a named counter.  [add name 0] creates the counter, so it
    shows in {!counters} with value 0. *)

val counter : string -> int
(** Current value of a named counter, summed over every domain; 0 for a
    name never counted.  Safe from any thread at any time. *)

val counters : unit -> (string * int) list
(** Every counter, summed over every domain and sorted by name.  Safe from
    any thread at any time. *)

val set_gauge : string -> float -> unit
(** Set a named gauge (last write wins; main-domain configuration values
    like pool size, not merged counters). *)

(** The former mirrored-counter API, kept only for [perfbench/]: the
    counters it mirrored now live in the registry above. *)
module Mirror : sig
  val get : string -> int
  (** {!counter}. *)

  val reset : unit -> unit
  (** {!reset}. *)
end

val percentile : float list -> float -> float
(** [percentile xs p] is the nearest-rank [p]-th percentile ([p] in
    0–100) of [xs]; 0 for no samples. *)

(** {1 Snapshots and exporters} *)

type span_agg = {
  sa_name : string;
  sa_count : int;  (** completed spans under this name, all domains *)
  sa_total_ns : int64;  (** summed duration *)
}

type event = {
  ev_domain : int;  (** domain id — one trace track per domain *)
  ev_seq : int;  (** per-domain completion order *)
  ev_name : string;
  ev_depth : int;  (** nesting depth at entry, 0 = top level *)
  ev_start_ns : int64;  (** relative to the trace epoch *)
  ev_dur_ns : int64;
}

type snapshot = {
  sn_counters : (string * int) list;  (** {!counters} *)
  sn_gauges : (string * float) list;  (** sorted by name *)
  sn_spans : span_agg list;  (** sorted by name *)
  sn_events : event list;  (** sorted by (domain, seq) *)
}

val snapshot : unit -> snapshot
(** Merge every domain's buffer deterministically.  Quiescent main domain
    only. *)

val pp_summary : Format.formatter -> snapshot -> unit
(** Human-readable summary table: gauges, counters, span aggregates. *)

val trace_json : snapshot -> string
(** Chrome trace-event JSON (the [{"traceEvents": [...]}] envelope): one
    complete ("ph":"X") event per span, one track ("tid") per domain, with
    thread-name metadata.  Load in Perfetto ({:https://ui.perfetto.dev}) or
    [chrome://tracing]. *)

val metrics_json : snapshot -> string
(** Machine-readable metrics: [{"schema":"phpsafe-obs/1","gauges":{...},
    "counters":{...},"spans":{name:{"count":n,"total_s":s}}}] — the format
    committed as [BENCH_*.json] trajectory data. *)

val write_file : string -> string -> unit
(** [write_file path contents] — tiny helper shared by the drivers. *)

val export : ?summary:bool -> ?trace:string -> ?metrics:string -> unit -> unit
(** The drivers' end-of-run export: when recording is enabled, take one
    {!snapshot}, write {!trace_json} to [trace] and {!metrics_json} to
    [metrics] (each announced on stderr), and with [~summary:true] print
    {!pp_summary} to stderr.  A no-op while recording is disabled. *)
