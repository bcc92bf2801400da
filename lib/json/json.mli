(** Minimal dependency-free JSON: a value type, a deterministic writer and
    a defensive parser.

    The writer is the only JSON encoder in the code base: findings reports
    ([Secflow.Report.to_json], [phpsafe_cli --format json], the
    [phpsafe_serve] daemon — which is what makes their outputs
    byte-identical for the same result), the serve protocol's frames, the
    Obs trace and metrics exporters and the [phpsafe-bench/1] results file
    all build a {!t} and render it here.  Field order is the order
    of the association list; no whitespace is emitted, so two structurally
    equal values always render to the same bytes.

    The parser exists for the serving layer's request decoding.  It is
    strict (one complete value, nothing but whitespace after it) and
    defensive: nesting is fuel-limited so a crafted deeply-nested payload
    returns [Error _] instead of overflowing the stack. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string
      (** an already-encoded JSON document, written verbatim (the daemon
          splices a rendered report into its reply this way); never
          produced by {!parse} *)
  | Seq of t Seq.t
      (** a list whose items are produced while it is written, so a long
          stream (the Obs trace) never exists as one value; never
          produced by {!parse} *)

val to_string : t -> string
(** Render without any whitespace.  [Float] values render with the
    shortest of [%.15g]/[%.16g]/[%.17g] that reads back exactly, always
    with a ['.'] or exponent; non-finite floats render as [null] to stay
    inside the JSON grammar. *)

val fixed : int -> float -> t
(** [fixed digits f] is [Float f] rounded to [digits] decimal places —
    for measured values whose trailing digits are noise. *)

val parse : ?max_depth:int -> string -> (t, string) result
(** Parse one complete JSON document ([max_depth] defaults to 512 nesting
    levels).  Numbers without ['.'], exponent, or overflow parse as [Int],
    everything else as [Float].  [\uXXXX] escapes decode to UTF-8
    (surrogate pairs combined; lone surrogates are an error). *)

(** {1 Accessors} — tolerant field navigation for decoded requests. *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on missing field or non-object. *)

val to_string_opt : t -> string option
val to_int_opt : t -> int option
val to_bool_opt : t -> bool option
val to_list_opt : t -> t list option
