(** The analysis-as-a-service daemon.

    A long-running server that keeps the in-memory parse memo and the
    persistent {!Phplang.Store} tiers warm across requests, listens on a
    Unix or TCP socket for {!Protocol} frames, and executes scans through
    a {!Sched} pool:

    - {b batching}: one scheduler, on a domain of its own, drains the
      queue into batches of same-budget requests (budgets are
      process-global, so a batch shares one {!Secflow.Budget.set}) and
      fans each batch out with [Sched.map_result] — per-request crash
      isolation included;
    - {b admission control}: at most [max_queue] requests wait and at most
      [max_inflight] execute; a scan arriving over capacity is shed with a
      structured [overloaded] reply instead of queueing without bound;
    - {b deadlines}: a request's [deadline_ms] becomes an absolute
      deadline at admission (queue time counts against it).  A queued
      request past its deadline is shed without running; a running one is
      cancelled cooperatively ({!Secflow.Deadline} checks at file and
      fixpoint-pass boundaries surface as [Sched.Cancelled]); both get a
      structured [deadline_exceeded] reply;
    - {b I/O timeouts}: with [io_timeout_s] set, accepted sockets get
      [SO_RCVTIMEO]/[SO_SNDTIMEO], so a peer silent (or not reading) for
      a whole interval loses its connection instead of pinning a handler
      thread.  The timeout is per syscall: a slowly-trickling peer resets
      it with every byte;
    - {b tenancy}: a request's [tenant] label prefixes every cache
      namespace for its analysis ({!Phplang.Store.with_tenant}), so
      tenants never share cache entries;
    - {b ops surface}: [status] reports queue depth, in-flight count,
      served/shed totals, uptime and the store's per-namespace disk usage
      ({!Phplang.Store.stats}); [metrics] adds per-namespace cache
      hit/miss/store counters and a latency histogram (count, mean, p50,
      p99).  The daemon always bumps the [serve.*] {!Obs}
      counters; when {!Obs} recording is on, the scheduler domain also
      sets [serve.*] gauges and wraps each batch in a [serve.batch] span;
    - {b graceful shutdown}: a [shutdown] request stops admission, drains
      every queued and in-flight scan (their replies are still delivered),
      wakes idle connections and joins the scheduler domain and every
      connection thread before {!run} returns.

    Threading: the accept loop and one systhread per connection run on
    the domain that called {!run}; the scheduler runs on a domain it
    spawns, and a pool of [jobs] > 1 adds [jobs - 1] helper domains per
    batch.  Analysis therefore never holds the runtime lock that request
    decoding and reply writing need. *)

type listen =
  | Unix_sock of string  (** socket path; unlinked on shutdown *)
  | Tcp of string * int  (** bind address and port *)

type config = {
  listen : listen;
  jobs : int option;  (** pool size; [None] = {!Sched.default_size} *)
  max_queue : int;  (** queued-scan cap before shedding; default 64 *)
  max_inflight : int option;  (** batch-size cap; [None] = 4 × jobs *)
  max_frame_bytes : int;  (** per-frame cap; oversized frames are refused *)
  prune_age_s : float option;
      (** when set, every batch boundary prunes store entries older than
          this many seconds, bounding the disk tier of a long-running
          daemon *)
  io_timeout_s : float option;
      (** when set (> 0), accepted connections get per-syscall
          receive/send timeouts of this many seconds; a timed-out
          connection is counted ([serve.io_timeouts]) and closed *)
}

val default_config : listen -> config

val run : ?on_ready:(Unix.sockaddr -> unit) -> config -> unit
(** Serve until a [shutdown] request arrives.  Blocks the calling thread;
    run it in a [Thread] (the benchmark does) or dedicate the process to
    it (the [phpsafe_serve] binary does).  [SIGPIPE] is ignored
    process-wide — a vanishing client must not kill the server.  The
    scheduler domain counts toward OCaml's limit on live domains; if
    [on_ready] raises or the domain cannot be spawned, [run] closes the
    listener, removes a Unix socket's file and re-raises.

    [on_ready] is called once, on the calling thread, as soon as the
    listener is bound and accepting — with the bound address, so an
    embedder that asked for TCP port 0 learns the real port.  A Unix
    socket is bound under a temp name and renamed onto its path only
    once it listens, so a client that sees the socket file can connect.  The status
    reply's [heartbeat_age_s] (also the [serve.heartbeat.age_s] gauge in
    [metrics]) is the watchdog: seconds since the scheduler last made
    observable progress (batch picked up, item finished, batch
    delivered).  While scans are in flight a small age means "busy", an
    age that keeps growing means "wedged"; with an empty queue the age
    just measures idle time and is harmless. *)
