(** Pixy's flow-sensitive abstract state: per-variable
    {!Secflow.Baseline.taint} maps joined at control-flow merges.  No revert
    modelling — a 2007-era tool. *)

val uninitialized : string -> Phplang.Ast.pos -> Secflow.Baseline.taint
(** register_globals: an unassigned variable is attacker-controllable. *)

module VMap : Map.S with type key = string

type state = Secflow.Baseline.taint VMap.t
(** A variable absent from the map has never been assigned. *)

val empty_state : state

val read :
  global_scope:bool ->
  state ->
  string ->
  Phplang.Ast.pos ->
  Secflow.Baseline.taint
(** In the global scope, reading an unassigned variable yields
    {!uninitialized} taint (register_globals = 1). *)

val write : state -> string -> Secflow.Baseline.taint -> state
val write_join : state -> string -> Secflow.Baseline.taint -> state

val join_state : global_scope:bool -> state -> state -> state
(** Merge-point join; a variable assigned on only one path stays possibly
    uninitialized in the global scope. *)

val equal_state : state -> state -> bool
(** Convergence test on the live kinds (sources ignored). *)
