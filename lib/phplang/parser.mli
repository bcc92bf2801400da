(** Recursive-descent parser for the PHP 5 plugin subset (see {!Ast}).

    Follows PHP's operator precedence and expands double-quoted string
    interpolation ([$var], [$var->prop], [$arr[key]], [{$expr}]) into
    {!Ast.Interp} parts. *)

exception Parse_error of string * Ast.pos
(** Parse failure with a human-readable message and source position. *)

exception Depth_exceeded of string * Ast.pos
(** Raised when expression/statement nesting exceeds the fuel limit (see
    {!set_nesting_limit}) — a resource-budget exhaustion, distinct from a
    syntax error, so callers can report it as such. *)

val default_nesting_limit : int
(** The built-in nesting-depth budget (512 levels). *)

val set_nesting_limit : int -> unit
(** Set the process-global nesting-depth fuel for all subsequent parses
    (clamped to ≥ 16).  Bounds recursion in the expression, prefix-operator
    and statement parsers so pathological inputs raise {!Depth_exceeded}
    instead of overflowing the OCaml stack. *)

val nesting_limit : unit -> int
(** The nesting-depth fuel currently in force. *)

val parse_tokens : file:string -> Token.t list -> Ast.program
(** Parse a significant-token list terminated by [T_EOF] (see
    {!Lexer.significant}); [file] is recorded in every position.  The
    analyzers parse through {!parse_source}; this entry point is kept for
    the benchmark's traced front end ([perfbench/passes.ml]), which times
    lexing and parsing as separate layers. *)

val parse_source : file:string -> string -> Ast.program
(** Parse a complete PHP source file in one pass: the parser pulls each
    significant token from a {!Lexer.reader} as it needs it, so no token
    list or array is built.  The errors are those of lexing the whole
    file first: when the parse raises, the rest of the file is lexed, and
    a {!Lexer.Error} there replaces the parser's exception. *)

val expr_of_string : ?file:string -> string -> Ast.expr
(** Parse a single PHP expression given without [<?php] tags — used for
    [{$...}] interpolation and convenient in tests.  The whole text is
    lexed, with {!parse_source}'s error precedence. *)
