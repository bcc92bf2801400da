(** Variable state — phpSAFE's [parser_variables] analogue (paper §III.C).

    A scope holds locals; the shared global table models WordPress loading
    every plugin file into one runtime.  [global $x] declarations alias a
    name into the global table; [$this] properties are stored per class as
    ["Class::$prop"] so taint crosses method boundaries (§III.E). *)

module S : Set.S with type elt = string
module SMap : Map.S with type key = string

type table = {
  mutable vars : Taint.t SMap.t;
  mutable writes : int;
      (** writes made through this module by scopes that do not own the
          table as their locals — a function or closure writing a global *)
}
(** A variable table: one mutable cell holding a persistent map, so a
    snapshot is a read of [vars] and a restore is a write.  Neither counts
    in [writes]. *)

val table : unit -> table
(** A fresh, empty table. *)

type t = {
  locals : table;
  globals : table;
  mutable declared_global : S.t;
  top_level : bool;
  class_of : (string, string) Hashtbl.t;  (** variable -> class binding *)
  current_class : string option;
  aliases : (string, string) Hashtbl.t;
      (** [$a =& $b] reference bindings (the Pixy [-A] analogue, §IV.B) *)
  mutable changes : int;
      (** changes to [declared_global], [class_of] and [aliases] *)
}

val create_toplevel : table -> t
(** Global scope: locals {e are} the global table. *)

val create_scope : ?current_class:string -> table -> t
(** Fresh function/method scope sharing the given global table. *)

val declare_global : t -> string -> unit

val alias : t -> string -> string -> unit
(** [alias t a b] makes [$a] a reference to [$b]'s cell. *)

val get : t -> string -> Taint.t
val set : t -> string -> Taint.t -> unit

val set_join : t -> string -> Taint.t -> unit
(** Join into the current value — assigning through one array slot taints
    the whole array conservatively. *)

val unset : t -> string -> unit
(** Destroy one name's binding.  A referenced cell stays alive through its
    other names: unsetting the representative moves its binding to the
    smallest-named alias and re-points the remaining aliases there. *)

val bind_class : t -> string -> string -> unit
val class_binding : t -> string -> string option
(** [$this] resolves to [current_class]. *)

val this_prop_key : t -> string -> string option
(** Global-table key for [$this->prop], when a current class is set. *)

val static_prop_key : string -> string -> string

val get_global_key : t -> string -> Taint.t
val set_global_key : t -> string -> Taint.t -> unit
val set_global_key_join : t -> string -> Taint.t -> unit
