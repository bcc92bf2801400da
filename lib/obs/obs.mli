(** Observability: hierarchical wall-clock spans, counters and gauges for
    the whole analysis stack, with domain-safe per-worker buffers and three
    exporters (human summary, Chrome trace-event JSON, metrics JSON).

    Instrumentation points call {!span}, {!incr}, {!add} and {!set_gauge}
    unconditionally; all four are no-ops while recording is disabled (the
    default), so the instrumented hot paths pay one atomic load and nothing
    else.  Drivers that want data call [set_enabled true] before the run and
    {!snapshot} after it.

    Concurrency model: every domain records into its own buffer
    ([Domain.DLS]), so workers spawned by [Sched.map] never contend; buffers
    register themselves in a global list on first use.  {!snapshot} and
    {!reset} must be called from a quiescent main domain (no workers
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
(** Turn recording on or off.  Enabling records the trace epoch: event
    timestamps in the trace export are relative to the [set_enabled true]
    call.  Flip only from a quiescent main domain. *)

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
(** Add 1 to a named counter. *)

val add : string -> int -> unit
(** Add [n] to a named counter. *)

val set_gauge : string -> float -> unit
(** Set a named gauge (last write wins; main-domain configuration values
    like pool size, not merged counters). *)

(** {1 Mirrored counters}

    A small always-on counter registry for low-frequency machinery counters
    (the sub-file incremental pipeline: [lexer.ckpt.*], [parser.region.*],
    [summary.dag.*]).  {!Mirror.incr}/{!Mirror.add} feed both the regular
    Obs counter (visible in snapshots when recording is enabled) and a
    mutex-guarded process-global mirror that can be read from {e any}
    thread at any time — unlike {!snapshot}, which requires a quiescent
    main domain.  The serving daemon's [metrics] reply reads the mirror
    from its connection threads. *)
module Mirror : sig
  val incr : string -> unit
  val add : string -> int -> unit

  val get : string -> int
  (** Current mirrored value; 0 for a name never incremented. *)

  val all : unit -> (string * int) list
  (** Every mirrored counter, sorted by name. *)

  val reset : unit -> unit
  (** Drop the mirror (the regular Obs counters are untouched). *)
end

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
  sn_counters : (string * int) list;  (** sorted by name *)
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
