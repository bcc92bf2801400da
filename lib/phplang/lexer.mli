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
(** [significant (tokenize src)], collected from a {!reader}. *)

(** {1 Checkpointed incremental lexing}

    The lexer's complete inter-token state is (byte position, line,
    in-PHP flag): heredocs, strings and comments are consumed whole within
    a single token, so there is no extra mode stack.  {!lex_all} records a
    checkpoint of that state every 32 tokens; {!relex}
    resumes from the nearest checkpoint safely before an edit's damage
    region and stops as soon as the fresh tokens re-synchronize with the
    old stream, reusing the unchanged prefix and suffix.  Counters:
    [lexer.ckpt.resume] (one per resumed re-lex) and
    [lexer.ckpt.resync_tokens] (tokens actually re-lexed). *)

type checkpoint = {
  ck_index : int;  (** tokens [0, ck_index) precede this boundary *)
  ck_pos : int;
  ck_line : int;
  ck_in_php : bool;
}

type lexed = {
  lx_src : string;
  lx_tokens : Token.t array;  (** includes the trailing {!Token.T_EOF} *)
  lx_starts : int array;
      (** byte offset of each token's first byte; strictly increasing *)
  lx_php : bool array;  (** in-PHP flag at each token's start *)
  lx_ckpts : checkpoint array;
}

val lex_all : string -> lexed
(** Full tokenization with checkpoints; token-for-token identical to
    {!tokenize}.  Raises {!Error} like {!tokenize}. *)

val relex : lexed -> string -> lexed
(** [relex old src] re-tokenizes [src] incrementally against the previous
    result [old], resuming from a checkpoint before the first changed byte
    and re-synchronizing with [old]'s token stream after the last changed
    byte.  The result is token-for-token identical to [lex_all src]
    (reused tokens are the old [Token.t] values themselves; suffix tokens
    are rebuilt with shifted line numbers when the edit changed the line
    count).  Raises {!Error} exactly when
    [lex_all src] would. *)

val tokens_of_lexed : lexed -> Token.t list
