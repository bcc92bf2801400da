(** Pixy's flow-sensitive abstract state: a map from variable names to
    {!Secflow.Baseline} taint, joined at control-flow merge points.

    register_globals: a variable read in the {e global scope} with no prior
    assignment on some path may have been seeded from the request, so it is
    treated as attacker-controlled (paper §V.A). *)

open Secflow
module T = Baseline

let uninitialized v pos =
  T.of_source Pixy_config.input_kinds (Pixy_config.uninitialized_source v) pos

module VMap = Map.Make (String)

type state = T.taint VMap.t
(** a variable absent from the map has never been assigned *)

let empty_state : state = VMap.empty

(** Read with register_globals semantics: in the global scope, an unassigned
    variable is attacker-controllable. *)
let read ~global_scope (st : state) v pos =
  match VMap.find_opt v st with
  | Some t -> t
  | None -> if global_scope then uninitialized v pos else T.clean

let write (st : state) v t : state = VMap.add v t st
let write_join (st : state) v t : state =
  VMap.add v (match VMap.find_opt v st with Some old -> T.join old t | None -> t) st

(** Merge-point join: a variable assigned on only one incoming path is still
    possibly uninitialized, which keeps the register_globals signal. *)
let join_state ~global_scope (a : state) (b : state) : state =
  VMap.merge
    (fun v ta tb ->
      match (ta, tb) with
      | Some ta, Some tb -> Some (T.join ta tb)
      | Some t, None | None, Some t ->
          if global_scope then
            Some (T.join t (uninitialized v Phplang.Ast.dummy_pos))
          else Some t
      | None, None -> None)
    a b

(** Convergence test on the live kinds; sources and the never-read [was]
    bookkeeping are ignored, so the fixpoint terminates on the flag
    lattice. *)
let equal_state (a : state) (b : state) =
  VMap.equal (fun x y -> x.T.live = y.T.live) a b
