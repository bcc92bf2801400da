(** Textual configuration format — the same extensibility as the original
    phpSAFE's editable configuration files (§III.A): a line-oriented spec
    that loads into a {!Config.t} and serialises back.  See the
    implementation header for the grammar. *)

exception Spec_error of string * int
(** Parse failure: message and 1-based line number. *)

val of_string : string -> Config.t

val of_string_with_warnings : string -> Config.t * string list
(** Like {!of_string}, but an unknown vulnerability-kind name in a kind
    list is collected as a warning (with its line number) and skipped
    rather than raised — a spec written for a newer kind taxonomy still
    loads, minus the unknown kinds.  Structural errors (unknown directives,
    malformed attributes) still raise {!Spec_error}. *)

val to_string : Config.t -> string
(** A fixpoint of [of_string ∘ to_string] up to the source classes. *)

val validate : ?base:Config.t -> Config.t -> string list
(** Sanity-check a profile: human-readable warnings for duplicate entries
    within a section and for names registered both as a source and as a
    sanitizer for the same vulnerability kind.  With [~base], the profile
    is an extension merged after [base], and each of its source, sanitizer
    and DB-endpoint entries whose name [base] already has for the same
    role is reported as shadowed (the first entry wins).  Empty for a
    coherent profile (all builtin profiles validate cleanly, and the
    shipped extensions shadow nothing in [generic-php]). *)

val load : string -> Config.t
(** Load a spec file from disk. *)

val load_with_warnings : string -> Config.t * string list
(** {!load} with the lenient unknown-kind policy of
    {!of_string_with_warnings}. *)
