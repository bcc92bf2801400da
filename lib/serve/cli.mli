(** The scan vocabulary of every command line, defined once.

    [phpsafe_cli], [phpsafe_serve] and [evaluate] take their scan-facing
    flags from here, so a flag has one name set, one default, one
    converter and one error text wherever it is accepted.  A bad value is
    a usage error (cmdliner's exit 124, a message naming the value on
    stderr) raised before anything is loaded or sent. *)

open Cmdliner

val scan_opts : Scan.opts Term.t
(** [--tool], [--kind]/[-k]/[--kinds], [--contexts], [--flow] and
    [--second-order].  Tool and kind are checked with {!Scan.tool_of} and
    {!Scan.kind_of_string}, whose messages are the error text. *)

val budget : Secflow.Budget.t Term.t
(** The four [--budget-*] caps, each defaulting to
    {!Secflow.Budget.default}'s field. *)

val cache : bool Term.t
(** [--cache-dir DIR] and [--no-cache].  Evaluating the term points
    {!Phplang.Store} at [DIR], or turns the disk tier off under
    [--no-cache]; with neither flag the store keeps its
    [PHPSAFE_CACHE_DIR] default.  It yields whether [--no-cache] was
    given. *)

val cache_dir : unit Term.t
(** [--cache-dir DIR] alone, for commands where turning the store off
    makes no sense ([phpsafe_serve fsck]). *)

val obs : summary:bool -> (unit -> unit) Term.t
(** [--trace FILE] and [--metrics FILE].  Evaluating the term turns
    {!Obs} recording on when either is given; the function it yields
    writes the requested files ({!Obs.export}, with the human summary on
    stderr when [summary]). *)

val positive : string -> int Arg.conv
(** [positive what] reads an integer of at least 1; any other value is
    the usage error "expected a positive [what], got: VALUE". *)

val target : string Term.t
(** The required positional [TARGET]: an existing PHP file or plugin
    directory. *)

val exits : Cmd.Exit.info list
(** The scan exit-code contract ({!Scan.exit_code}) as help entries for
    0, 1 and 2; callers append their own codes and cmdliner's defaults. *)
