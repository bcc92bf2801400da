(** Vulnerability taxonomy shared by all three analyzers and the evaluation
    harness. *)

(** The vulnerability classes the engine detects.  [Xss] and [Sqli] are the
    paper's original two (§I); [Cmdi] (command injection),
    [Path_traversal] (LFI), [Ssrf] and [Second_order_sqli] extend the same
    source/sink/sanitizer architecture to further injection families. *)
type kind = Xss | Sqli | Cmdi | Path_traversal | Ssrf | Second_order_sqli

val all_kinds : kind list
(** Every kind, in declaration (= display) order. *)

val kind_to_string : kind -> string
(** ["XSS"], ["SQLi"], ["CMDi"], ["LFI"], ["SSRF"], ["SO-SQLi"]. *)

val kind_spec_name : kind -> string
(** Lowercase identifier used in config files, report-summary keys and
    [--kind(s)] command lines: ["xss"], ["sqli"], ["cmdi"], ["lfi"],
    ["ssrf"], ["so-sqli"]. *)

val kind_of_spec_name : string -> kind option
(** Inverse of {!kind_spec_name}; also accepts the aliases
    ["path-traversal"] and ["second-order-sqli"].  [None] on unknown
    names. *)

val pp_kind : Format.formatter -> kind -> unit
val equal_kind : kind -> kind -> bool
val compare_kind : kind -> kind -> int

(** Malicious input-vector classes of Table II, in the paper's order —
    graded by how easily an attacker controls the source (§V.C). *)
type vector =
  | Post
  | Get
  | Post_get_cookie
  | Db
  | File_function_array

val all_vectors : vector list
val vector_to_string : vector -> string

val vector_is_direct : vector -> bool
(** Directly manipulable (GET/POST/COOKIE) — the "very easy to exploit"
    class of the §V.D inertia analysis. *)

(** Where tainted data enters the plugin. *)
type source =
  | Superglobal of string       (** e.g. ["$_GET"] *)
  | Database of string          (** producing function/method *)
  | File_read of string
  | Function_return of string
  | Uninitialized of string     (** register_globals-style *)
  | Unknown_source

val source_to_string : source -> string

val vector_of_source : source -> vector
(** The Table II class a source falls into. *)
