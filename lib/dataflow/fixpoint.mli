(** Generic forward dataflow engine over {!Cfg}, parameterized by the
    client's lattice and transfer function.  The iteration discipline is
    Pixy's pre-extraction solver plus one stopping rule: a pass is the last
    one when no back-edge source changed its out-state during it and the
    client's [effects] counter did not move, because the next pass would
    replay it.  A client whose counter moves on every call gets the
    pre-extraction iteration exactly. *)

type 'st config = {
  init : 'st;  (** in-state of the entry node *)
  bottom : 'st;  (** state of nodes with no computed predecessors *)
  join : 'st -> 'st -> 'st;
  equal : 'st -> 'st -> bool;
      (** convergence test; must be reflexive, since a physically equal
          out-state counts as unchanged without calling it *)
  transfer : 'st -> Phplang.Ast.stmt -> 'st;
      (** may carry side effects; runs once per node visit, every pass, so
          effectful clients must de-duplicate and keep their state
          monotonically ascending *)
  effects : unit -> int;
      (** a counter the client moves whenever a transfer writes state
          outside ['st] that a later transfer may read.  Read before and
          after every pass; a pass that changed no back-edge source and left
          it still is final.  [fun () -> 0] suits a client whose transfers
          read nothing but ['st] and replay-safe memos. *)
  max_passes : int;
      (** pass budget.  Iteration ascends from [bottom], so a solve that
          runs out of passes leaves states that {e under}-approximate a
          may-analysis's fixpoint; [converged] says so. *)
}

type 'st result = {
  exit_state : 'st;  (** out-state of the CFG's exit node *)
  out_states : 'st option array;
      (** per-node out-states; [None] for nodes never reached *)
  passes : int;
  converged : bool;
      (** [false] when [max_passes] ran out before a stopping rule held *)
}

val solve : ?check:(unit -> unit) -> 'st config -> Cfg.t -> 'st result
(** [solve ?check c cfg] runs the fixpoint to convergence or the pass
    budget.  [check] (default: no-op) is called at the top of every pass;
    it may raise to abandon the solve — the serving daemon passes
    [Secflow.Deadline.check] here so a per-request wall-clock deadline
    cancels long-running fixpoints at pass boundaries. *)
