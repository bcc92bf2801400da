(** Per-request wall-clock fuel for the analysis pipeline.

    {!Budget} bounds *logical* resources (parser nesting, fixpoint passes,
    include closures) with one process-global value per batch.  Deadlines
    bound *time*, and time budgets differ per request within a batch, so
    the deadline in force is domain-local ([Domain.DLS]): the serving
    daemon wraps each work item in {!with_deadline} on the worker domain
    that executes it, and the analyzers call {!check} at file and
    fixpoint-pass boundaries.

    Cancellation is cooperative and travels as {!Exceeded}, an alias of
    [Sched.Cancel]: the per-file crash barriers re-raise it instead of
    degrading it to a [Crashed] file outcome, so it escapes the analyzer,
    reaches [Sched.map_result], and surfaces as the [Cancelled] outcome
    for exactly that item.  Code that never sets a deadline pays one
    DLS read and a float compare per {!check} — the CLI and evaluation
    paths are unaffected. *)

exception Exceeded
(** Alias of [Sched.Cancel] — raised by {!check} once the deadline has
    passed.  Catch-all handlers between an analysis loop and the scheduler
    must re-raise it ([with e when e <> Deadline.Exceeded -> ...] or an
    explicit first arm), otherwise the request degrades to a crash report
    instead of a [deadline_exceeded] reply. *)

val with_deadline : float option -> (unit -> 'a) -> 'a
(** [with_deadline at f] runs [f] with the absolute deadline [at] (in
    [Obs.Clock.now] monotonic seconds) in force on the calling domain,
    restoring the previous deadline on exit (normal or exceptional).
    [None] means unbounded. *)

val check : unit -> unit
(** Raise {!Exceeded} (bumping the [deadline.exceeded] counter) if the
    deadline in force has passed; no-op otherwise.  Called at file
    boundaries ([Cache.file_loop], the phpSAFE per-file loops) and at
    fixpoint-pass boundaries ([Dataflow.Fixpoint.solve ~check]). *)
