(** Generic forward dataflow engine over {!Cfg}: a round-robin worklist in
    reverse post-order, parameterized by the client's lattice (join /
    equality) and transfer function.

    The iteration discipline is Pixy's pre-extraction solver plus one
    stopping rule that proves a further pass would be a replay:

    - per pass, every reachable node is visited in {!Cfg.rpo} order;
    - a node's in-state is the join of its predecessors' out-states
      (predecessors not yet computed contribute nothing); the entry node
      additionally joins [init] — back-edges into the entry are honoured;
    - a node with no computed predecessor inputs gets [bottom] ([init] for
      the entry node);
    - iteration stops after a pass that changed no out-state, or after a
      pass that changed no {e back-edge source} (a node with a successor
      at or before it in RPO, self-loops included) while the client's
      [effects] counter stood still, or after [max_passes] passes,
      whichever comes first.  Only the budget stop leaves [converged]
      [false]; the states computed so far then stand: the iteration ascends
      from [bottom], so for a may-analysis (taint) they {e under}-
      approximate the fixpoint — facts the missing passes would have added
      are absent.  Clients report exhaustion rather than treat those states
      as sound;
    - an out-state physically equal to the previous one is unchanged
      without calling [equal], which must therefore be reflexive.  A
      client whose transfer function returns its input (or shares it)
      when nothing changed gets the convergence test for free.

    Why the second stop is exact: a node reads the current pass's
    out-states along forward edges and the previous pass's along back
    edges.  If no back-edge source changed during pass k, every back-edge
    read of pass k+1 returns what pass k read; if no state outside ['st]
    that a transfer reads was written, pass k+1 starts from the outside
    state pass k started from.  By induction over RPO, pass k+1 then sees
    the in-states and the outside state of pass k at every node, so it
    replays pass k: the same out-states, and side effects that a client
    already de-duplicates.  On an acyclic CFG pass 1 reads no back edge,
    so a pass 1 that writes nothing outside its scope is final.

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
  effects : unit -> int;  (** moves on every outside write a transfer may read *)
  max_passes : int;  (** pass budget; exhaustion under-approximates *)
}

type 'st result = {
  exit_state : 'st;  (** out-state of the CFG's exit node *)
  out_states : 'st option array;
      (** per-node out-states; [None] for nodes never reached *)
  passes : int;
  converged : bool;  (** [false] when [max_passes] ran out before a stop *)
}

(* Nodes with a successor at or before them in [order]: the sources of the
   back edges, whose out-states the next pass reads before recomputing. *)
let back_edge_sources cfg order =
  let rank = Array.make (Cfg.size cfg) (-1) in
  List.iteri (fun i id -> rank.(id) <- i) order;
  let feeds_back = Array.make (Cfg.size cfg) false in
  List.iter
    (fun id ->
      feeds_back.(id) <-
        List.exists (fun s -> rank.(s) <= rank.(id)) (Cfg.node cfg id).Cfg.succs)
    order;
  feeds_back

let solve ?(check = fun () -> ()) (c : 'st config) (cfg : Cfg.t) :
    'st result =
  let n = Cfg.size cfg in
  let out_states = Array.make n None in
  let order = Cfg.rpo cfg in
  let feeds_back = back_edge_sources cfg order in
  let final = ref false in
  let passes = ref 0 in
  while (not !final) && !passes < c.max_passes do
    check ();
    incr passes;
    let effects = c.effects () in
    let changed = ref false and fed_back = ref false in
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
            changed := true;
            if feeds_back.(id) then fed_back := true)
      order;
    final := (not !changed) || ((not !fed_back) && c.effects () = effects)
  done;
  {
    exit_state = Option.value out_states.(cfg.Cfg.exit_) ~default:c.bottom;
    out_states;
    passes = !passes;
    converged = !final;
  }
