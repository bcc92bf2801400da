(** PHP tokenizer — the [token_get_all] equivalent the analyzers build on
    (paper §III.B). *)

exception Error of string * int
(** Lexing failure: message and 1-based line number. *)

val tokenize : string -> Token.t list
(** [tokenize src] splits a PHP source file into tokens, including
    whitespace, comments and inline HTML, terminated by {!Token.T_EOF}.
    Raises {!Error} on malformed input (unterminated strings/comments,
    characters outside the supported subset). *)

val two_char_ops : (string * Token.kind) list
(** The two-character operators and their kinds; the lexer's operator
    dispatch is derived from this list.  [===], [!==], [?>] and [<<<] are
    recognised separately. *)

val is_significant : Token.t -> bool
(** [false] for whitespace and comment tokens. *)

val significant : Token.t list -> Token.t list
(** Drop whitespace and comment tokens — phpSAFE "cleans the AST by removing
    comments and extra whitespaces" (§III.B). *)

val reader : string -> unit -> Token.t
(** [reader src] pulls the significant tokens of [src] one at a time, in
    [significant (tokenize src)]'s order, and then answers its
    {!Token.T_EOF} for ever.  A call raises {!Error} where {!tokenize}
    would, and every later call raises the same error again.  The
    [lexer.intern.*] counters are published once, when the reader reaches
    the end or raises. *)

val drain : (unit -> Token.t) -> int
(** [drain next] pulls from a reader up to its {!Token.T_EOF} and returns
    how many tokens it pulled, [T_EOF] included.  Raises the reader's
    {!Error}. *)

val tokenize_significant : string -> Token.t list
(** [significant (tokenize src)], collected from a {!reader}.  The
    parser pulls from a {!reader} directly; this list form is kept for
    the benchmark's traced front end ([perfbench/passes.ml]), which times
    lexing apart from parsing. *)
