(** Process-global resource budgets for the analysis pipeline.

    Budgets bound the places where a pathological input could otherwise
    consume unbounded stack, memory or time: parser nesting, the dataflow
    fixpoints (Pixy's, and phpSAFE's under [--flow]), and the
    include-closure walk.  Exhausting a budget is never fatal — the
    affected file degrades to a [Failed (Budget_exhausted _)] outcome in
    the §V.E robustness table while the rest of the run proceeds.  A
    fixpoint that runs out keeps the findings it already made; they
    under-approximate the converged result, since the missing passes could
    only have added taint.

    The budget is one process-global value (an [Atomic.t]): the drivers
    set it once from their [--budget-*] flags before any analysis runs.
    [set] also pushes [parse_depth] down into {!Phplang.Parser}'s nesting
    fuel, which lives below this module in the library stack.

    This is distinct from phpSAFE's own include-closure *modeling* budget
    (paper §III.B, reported as [Out_of_memory]): that one reproduces the
    paper's observed tool behaviour, these are safety rails of the
    reproduction itself. *)

type t = {
  parse_depth : int;
      (** parser nesting fuel (expression/statement depth); default 512 *)
  fixpoint_passes : int;
      (** cap on dataflow fixpoint passes per function/file body, for Pixy
          and for phpSAFE's [--flow] walk; default 64 *)
  include_depth : int;
      (** include-closure chain-depth cap; default 64 *)
  include_files : int;
      (** include-closure size cap (files per closure); default 4096 *)
}

val default : t

val get : unit -> t
(** The budget currently in force. *)

val set : t -> unit
(** Install a new budget (fields clamped to sane minimums) and push the
    parser nesting fuel down into {!Phplang.Parser}.  Call from the main
    domain before analysis starts; the value is read atomically by every
    worker. *)

val reset : unit -> unit
(** [set default]. *)
