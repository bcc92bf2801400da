(** PHP pretty-printer.

    Output re-parses to an equal AST (positions aside) — a property checked
    by QCheck round trips — and is the concrete syntax for everything the
    corpus generator emits. *)

val program_to_string : Ast.program -> string
(** Render a whole program as a PHP file starting with [<?php]. *)

val expr_to_string : Ast.expr -> string
(** Render one expression, without tags or terminator. *)

val stmt_to_string : Ast.stmt -> string
(** Render one statement at indentation depth 0, without tags. *)
