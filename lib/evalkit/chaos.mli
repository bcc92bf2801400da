(** E15 — deterministic service-layer chaos (beyond the paper).

    Drives a live [phpsafe_serve] daemon through seed-derived fault
    scenarios at the three layers the robustness work hardened:

    - {b socket faults}: a full frame trickled one byte at a time, a
      connection cut mid-frame, a peer that stalls past the daemon's I/O
      timeout;
    - {b disk faults}: the {!Phplang.Store} fault hook raising [ENOSPC]
      on every cache write during a RIPS scan, whose per-file result
      write then fails in every round;
    - {b time faults}: artificially slow scans (a
      {!Serve.Scan.set_before_analyze_hook} that burns wall-clock while
      honouring {!Secflow.Deadline} checks) against tight [deadline_ms]
      requests, plus a zero-queue daemon shedding everything as
      [overloaded].

    The invariant: the daemon never crashes, and {e every} request
    terminates in exactly one of {report, deadline_exceeded, overloaded,
    transport error} — nothing hangs, nothing escapes.  All randomness
    comes from {!Corpus.Prng}, scenarios run sequentially, and
    {!outcome_table} contains counts only — so the table is byte-identical
    for the same seed at any worker-pool size ([test/test_chaos.ml]
    diffs [jobs:1] against [jobs:4]). *)

type row = {
  cr_scenario : string;
  cr_report : int;  (** delivered scan reports *)
  cr_deadline : int;  (** structured [deadline_exceeded] replies *)
  cr_overloaded : int;  (** structured [overloaded] replies *)
  cr_transport : int;  (** clean transport-level terminations *)
  cr_other : int;  (** anything else — must be 0 *)
}

type report = {
  ch_seed : int;
  ch_rounds : int;
  ch_jobs : int;  (** daemon worker-pool size *)
  ch_requests : int;  (** total requests issued across both phases *)
  ch_rows : row list;  (** one row per scenario, fixed order *)
  ch_crashes : int;  (** failed per-round daemon liveness probes *)
  ch_unterminated : int;  (** requests outside the four terminal classes *)
  ch_identity_ok : bool;
      (** every delivered report was byte-identical to the in-process
          [Scan.run_json] for the same project *)
  ch_overshoot_p99_ms : float;
      (** p99 of (reply latency − deadline) over the slow-deadline
          scenarios: how far past its deadline a cancelled request's
          reply arrived *)
  ch_tolerance_ms : float;  (** stated overshoot tolerance *)
}

val scenario_order : string list
(** The fixed scenario row order of {!report.ch_rows}; every round issues
    one request per phase-A scenario and phase B adds the
    ["overload-shed"] batch. *)

val run : ?seed:int -> ?rounds:int -> jobs:int -> unit -> report
(** Run the full chaos suite against private daemons (temporary cache and
    socket directories, removed afterwards; the ambient store root and
    both process-global fault hooks are restored whatever happens).
    Defaults: [seed 1105], [rounds 4]. *)

val outcome_table : report -> string
(** The per-scenario outcome counts as a fixed-width table.  Counts only —
    no timings — so equal seeds must render byte-identical tables at any
    [jobs]. *)

val print : Format.formatter -> report -> unit
(** {!outcome_table} plus the non-deterministic trailer (overshoot p99,
    crash and termination verdicts). *)
