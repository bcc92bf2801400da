(** Generic forward dataflow engine over {!Cfg}: a round-robin worklist in
    reverse post-order, parameterized by the client's lattice (join /
    equality) and transfer function.

    The iteration discipline is exactly the one Pixy's solver used before
    the extraction, so a client that plugs in Pixy's lattice reproduces its
    findings byte for byte:

    - per pass, every reachable node is visited in {!Cfg.rpo} order;
    - a node's in-state is the join of its predecessors' out-states
      (predecessors not yet computed contribute nothing); the entry node
      additionally joins [init] — back-edges into the entry are honoured;
    - a node with no computed predecessor inputs gets [bottom] ([init] for
      the entry node);
    - iteration stops when no out-state changed during a pass, or after
      [max_passes] passes, whichever comes first.  In the latter case
      [converged] is [false] and the states computed so far stand: the
      iteration ascends from [bottom], so for a may-analysis (taint) they
      {e under}-approximate the fixpoint — facts the missing passes would
      have added are absent.  Clients report exhaustion rather than treat
      those states as sound;
    - an out-state physically equal to the previous one is unchanged
      without calling [equal], which must therefore be reflexive.  A
      client whose transfer function returns its input (or shares it)
      when nothing changed gets the convergence test for free.

    The transfer function may carry side effects (finding reports,
    observability counters): it runs once per node visit, every pass, so
    effectful clients must de-duplicate reports and make sure their state
    only ascends — both already true of the taint analyses here. *)

type 'st config = {
  init : 'st;  (** in-state of the entry node *)
  bottom : 'st;  (** state of nodes with no computed predecessors *)
  join : 'st -> 'st -> 'st;
  equal : 'st -> 'st -> bool;  (** convergence test; must be reflexive *)
  transfer : 'st -> Phplang.Ast.stmt -> 'st;
  max_passes : int;  (** pass budget; exhaustion under-approximates *)
}

type 'st result = {
  exit_state : 'st;  (** out-state of the CFG's exit node *)
  out_states : 'st option array;
      (** per-node out-states; [None] for nodes never reached *)
  passes : int;
  converged : bool;  (** [false] when [max_passes] ran out first *)
}

let solve ?(check = fun () -> ()) (c : 'st config) (cfg : Cfg.t) :
    'st result =
  let n = Cfg.size cfg in
  let out_states = Array.make n None in
  let order = Cfg.rpo cfg in
  let changed = ref true in
  let passes = ref 0 in
  while !changed && !passes < c.max_passes do
    check ();
    changed := false;
    incr passes;
    List.iter
      (fun id ->
        let node = Cfg.node cfg id in
        let pred_outs =
          List.filter_map (fun p -> out_states.(p)) node.Cfg.preds
        in
        let in_state =
          if id = cfg.Cfg.entry then List.fold_left c.join c.init pred_outs
          else
            match pred_outs with
            | [] -> c.bottom
            | o :: rest -> List.fold_left c.join o rest
        in
        let out_state = List.fold_left c.transfer in_state node.Cfg.stmts in
        match out_states.(id) with
        | Some prev when prev == out_state || c.equal prev out_state -> ()
        | _ ->
            out_states.(id) <- Some out_state;
            changed := true)
      order
  done;
  {
    exit_state = Option.value out_states.(cfg.Cfg.exit_) ~default:c.bottom;
    out_states;
    passes = !passes;
    converged = not !changed;
  }
