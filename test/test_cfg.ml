(** CFG construction tests: block structure, edges for each control
    construct, jump wiring and reverse post-order. *)

module A = Phplang.Ast
module Cfg = Dataflow.Cfg

let build src =
  Cfg.build (Phplang.Parser.parse_source ~file:"t.php" ("<?php\n" ^ src))

let reachable cfg =
  let seen = Hashtbl.create 16 in
  let rec go id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      List.iter go (Cfg.node cfg id).Cfg.succs
    end
  in
  go cfg.Cfg.entry;
  Hashtbl.length seen

let exit_reachable cfg =
  let seen = Hashtbl.create 16 in
  let rec go id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      List.iter go (Cfg.node cfg id).Cfg.succs
    end
  in
  go cfg.Cfg.entry;
  Hashtbl.mem seen cfg.Cfg.exit_

let case name f = Alcotest.test_case name `Quick f

let cases =
  [
    case "straight-line code is one path" (fun () ->
        let cfg = build "$a = 1;\n$b = 2;\necho $b;" in
        Alcotest.(check bool) "exit reachable" true (exit_reachable cfg);
        let entry = Cfg.node cfg cfg.Cfg.entry in
        Alcotest.(check int) "all stmts in entry" 3 (List.length entry.Cfg.stmts));
    case "if creates branch and merge" (fun () ->
        let cfg = build "if ($c) {\n$a = 1;\n}\necho $a;" in
        let entry = Cfg.node cfg cfg.Cfg.entry in
        Alcotest.(check int) "entry has two successors" 2
          (List.length entry.Cfg.succs);
        Alcotest.(check bool) "exit reachable" true (exit_reachable cfg));
    case "if-else: both branches reach the merge" (fun () ->
        let cfg = build "if ($c) {\n$a = 1;\n} else {\n$a = 2;\n}\necho $a;" in
        Alcotest.(check bool) "exit reachable" true (exit_reachable cfg));
    case "while has a back edge" (fun () ->
        let cfg = build "while ($c) {\n$a = 1;\n}" in
        let has_back =
          Array.exists
            (fun (n : Cfg.node) ->
              List.exists (fun s -> s < n.Cfg.id) n.Cfg.succs)
            cfg.Cfg.nodes
        in
        Alcotest.(check bool) "back edge exists" true has_back);
    case "return jumps to exit" (fun () ->
        let cfg = build "return 1;\necho 'dead';" in
        let entry = Cfg.node cfg cfg.Cfg.entry in
        Alcotest.(check (list int)) "entry -> exit" [ cfg.Cfg.exit_ ]
          entry.Cfg.succs);
    case "exit() jumps to exit node" (fun () ->
        let cfg = build "$a = 1;\nexit;\necho $a;" in
        let entry = Cfg.node cfg cfg.Cfg.entry in
        Alcotest.(check (list int)) "entry -> exit" [ cfg.Cfg.exit_ ]
          entry.Cfg.succs);
    case "break wires to loop exit" (fun () ->
        let cfg = build "while ($c) {\nbreak;\n$x = 1;\n}\necho 'after';" in
        Alcotest.(check bool) "exit reachable" true (exit_reachable cfg));
    case "continue wires to header" (fun () ->
        let cfg = build "while ($c) {\ncontinue;\n}\necho 'after';" in
        Alcotest.(check bool) "exit reachable" true (exit_reachable cfg));
    case "foreach header carries the binding" (fun () ->
        let cfg = build "foreach ($xs as $v) {\necho $v;\n}" in
        let has_binding =
          Array.exists
            (fun (n : Cfg.node) ->
              List.exists
                (fun (s : A.stmt) ->
                  match s.A.s with A.Foreach (_, _, []) -> true | _ -> false)
                n.Cfg.stmts)
            cfg.Cfg.nodes
        in
        Alcotest.(check bool) "binding present" true has_binding);
    case "switch cases fall through" (fun () ->
        let cfg =
          build "switch ($m) {\ncase 1:\n$a = 1;\ncase 2:\n$a = 2;\nbreak;\n}"
        in
        Alcotest.(check bool) "exit reachable" true (exit_reachable cfg));
    case "declarations produce no statements" (fun () ->
        let cfg = build "function f() {\necho 1;\n}\nclass A {\n}" in
        let total =
          Array.fold_left
            (fun acc (n : Cfg.node) -> acc + List.length n.Cfg.stmts)
            0 cfg.Cfg.nodes
        in
        Alcotest.(check int) "no statements" 0 total);
    case "rpo starts at entry and is complete for reachable nodes" (fun () ->
        let cfg = build "if ($c) {\n$a = 1;\n} else {\n$b = 2;\n}\nwhile ($d) {\n$e = 3;\n}" in
        let order = Cfg.rpo cfg in
        Alcotest.(check int) "first is entry" cfg.Cfg.entry (List.hd order);
        Alcotest.(check int) "covers reachable nodes" (reachable cfg)
          (List.length order));
    case "try-catch: body and handlers both flow to merge" (fun () ->
        let cfg =
          build "try {\n$a = 1;\n} catch (E $e) {\n$a = 2;\n}\necho $a;"
        in
        Alcotest.(check bool) "exit reachable" true (exit_reachable cfg));
  ]

(* ------------------------------------------------------------------ *)
(* Fixpoint engine: a toy tainted-variable analysis over the shared    *)
(* CFG.  [$x = $_GET[...]] gens, [$x = 'lit'] kills, [$x = $y] copies. *)
(* ------------------------------------------------------------------ *)

module F = Dataflow.Fixpoint
module SMap = Map.Make (String)

let toy_transfer st (s : A.stmt) =
  match s.A.s with
  | A.Expr { A.e = A.Assign ({ A.e = A.Var x; _ }, rhs); _ } -> (
      match rhs.A.e with
      | A.ArrayGet ({ A.e = A.Var "$_GET"; _ }, _) -> SMap.add x true st
      | A.Var y -> SMap.add x (SMap.mem y st && SMap.find y st) st
      | _ -> SMap.add x false st)
  | _ -> st

let toy_config ?(effects = fun () -> 0) max_passes =
  { F.init = SMap.empty; bottom = SMap.empty;
    join = SMap.union (fun _ a b -> Some (a || b));
    equal = SMap.equal Bool.equal;
    transfer = toy_transfer; effects; max_passes }

let solve ?effects ?(max_passes = 50) src =
  let cfg = build src in
  (cfg, F.solve (toy_config ?effects max_passes) cfg)

(* a client counter that moves on every read *)
let moving () =
  let k = ref 0 in
  fun () -> incr k; !k

(* The solver before the back-edge stopping rule: it stops only after a
   pass that changed no out-state.  A moving counter must reproduce it. *)
let reference_solve (c : _ F.config) cfg =
  let out_states = Array.make (Cfg.size cfg) None in
  let changed = ref true and passes = ref 0 in
  while !changed && !passes < c.F.max_passes do
    changed := false;
    incr passes;
    List.iter
      (fun id ->
        let node = Cfg.node cfg id in
        let pred_outs = List.filter_map (fun p -> out_states.(p)) node.Cfg.preds in
        let in_state =
          if id = cfg.Cfg.entry then List.fold_left c.F.join c.F.init pred_outs
          else
            match pred_outs with
            | [] -> c.F.bottom
            | o :: rest -> List.fold_left c.F.join o rest
        in
        let out = List.fold_left c.F.transfer in_state node.Cfg.stmts in
        match out_states.(id) with
        | Some prev when c.F.equal prev out -> ()
        | _ ->
            out_states.(id) <- Some out;
            changed := true)
      (Cfg.rpo cfg)
  done;
  (out_states, !passes, not !changed)

let straight = "$a = $_GET['x'];\n$b = $a;\n$a = 'safe';"
let branchy = "if ($c) {\n$a = $_GET['x'];\n} else {\n$a = 'safe';\n}\n$b = $a;"
let loopy = "$w = 'c';\nwhile ($p) {\n$v = $w;\n$w = $_GET['x'];\n}"

let reference_sources =
  [ straight; branchy; loopy;
    "$a = $_GET['x'];\nif ($c) {\n$a = 'safe';\n}";
    "do {\n$b = $a;\n$a = $_GET['x'];\n} while ($c);";
    "for ($i = 0; $i < 3; $i++) {\nif ($c) {\ncontinue;\n}\n$z = $y;\n$y = $x;\n$x = $_GET['x'];\n}";
    "while ($p) {\nwhile ($q) {\n$b = $a;\n$a = $_GET['x'];\n}\n$c = $b;\n}";
    "$a = 'safe';\nif ($c) {\n$a = $_GET['x'];\nexit;\n}\necho $a;" ]

let same_states a b =
  Array.for_all2 (Option.equal (SMap.equal Bool.equal)) a b

let tainted res x =
  match SMap.find_opt x res.F.exit_state with Some b -> b | None -> false

let fixpoint_cases =
  [
    case "straight-line gen then kill" (fun () ->
        let _, res = solve "$a = $_GET['x'];\n$a = 'safe';" in
        Alcotest.(check bool) "killed" false (tainted res "$a");
        Alcotest.(check bool) "converged" true res.F.converged);
    case "branch join keeps the tainted side" (fun () ->
        let _, res =
          solve "if ($c) {\n$a = $_GET['x'];\n} else {\n$a = 'safe';\n}"
        in
        Alcotest.(check bool) "joined tainted" true (tainted res "$a"));
    case "kill in one branch does not kill the other" (fun () ->
        let _, res =
          solve "$a = $_GET['x'];\nif ($c) {\n$a = 'safe';\n}"
        in
        Alcotest.(check bool) "still tainted" true (tainted res "$a"));
    case "loop back-edge re-generates" (fun () ->
        (* $v only becomes tainted on the second pass, through the back
           edge: pass 1 copies the clean $w, pass 2 the tainted one *)
        let _, res =
          solve "$w = 'c';\nwhile ($p) {\n$v = $w;\n$w = $_GET['x'];\n}"
        in
        Alcotest.(check bool) "loop-carried" true (tainted res "$v");
        Alcotest.(check bool) "needed >1 pass" true (res.F.passes > 1);
        Alcotest.(check bool) "converged" true res.F.converged);
    case "exiting branch does not reach the join" (fun () ->
        let cfg, res =
          solve "$a = 'safe';\nif ($c) {\n$a = $_GET['x'];\nexit;\n}\necho $a;"
        in
        (* the echo node's out-state must be the fallthrough one *)
        let echo_clean =
          Array.exists
            (fun (n : Cfg.node) ->
              List.exists
                (fun (s : A.stmt) ->
                  match s.A.s with A.Echo _ -> true | _ -> false)
                n.Cfg.stmts
              &&
              match res.F.out_states.(n.Cfg.id) with
              | Some st -> not (SMap.mem "$a" st && SMap.find "$a" st)
              | None -> false)
            cfg.Cfg.nodes
        in
        Alcotest.(check bool) "echo sees the clean state" true echo_clean);
    case "dead nodes have no out-state" (fun () ->
        let cfg, res = solve "exit;\n$a = $_GET['x'];" in
        let dead_unvisited =
          Array.for_all
            (fun (n : Cfg.node) ->
              match res.F.out_states.(n.Cfg.id) with
              | None -> true
              | Some _ -> n.Cfg.id = cfg.Cfg.entry || n.Cfg.id = cfg.Cfg.exit_)
            cfg.Cfg.nodes
        in
        Alcotest.(check bool) "only entry/exit computed" true dead_unvisited);
    case "pass budget exhaustion reports non-convergence" (fun () ->
        let _, res =
          solve ~max_passes:1
            "$w = 'c';\nwhile ($p) {\n$v = $w;\n$w = $_GET['x'];\n}"
        in
        Alcotest.(check bool) "not converged" false res.F.converged;
        Alcotest.(check int) "spent the budget" 1 res.F.passes);
    case "acyclic bodies stop after one pass while the counter stands still"
      (fun () ->
        List.iter
          (fun src ->
            let _, still = solve src in
            Alcotest.(check int) "one pass" 1 still.F.passes;
            Alcotest.(check bool) "converged" true still.F.converged;
            let _, moved = solve ~effects:(moving ()) src in
            Alcotest.(check int) "two passes when it moves" 2 moved.F.passes;
            Alcotest.(check bool) "same exit state" true
              (SMap.equal Bool.equal still.F.exit_state moved.F.exit_state))
          [ straight; branchy ]);
    case "a self-loop is a back edge" (fun () ->
        (* no statement builds one, so add it by hand around the entry *)
        let cfg = build "$b = $a;\n$a = $_GET['x'];" in
        let entry = Cfg.node cfg cfg.Cfg.entry in
        entry.Cfg.succs <- entry.Cfg.id :: entry.Cfg.succs;
        entry.Cfg.preds <- entry.Cfg.id :: entry.Cfg.preds;
        let res = F.solve (toy_config 50) cfg in
        Alcotest.(check bool) "carried around the loop" true (tainted res "$b");
        Alcotest.(check bool) "converged" true res.F.converged);
    case "a body proven final within the budget is converged" (fun () ->
        (* one pass over a straight line is final, so the budget of one
           pass no longer reports exhaustion *)
        let _, res = solve ~max_passes:1 straight in
        Alcotest.(check int) "one pass" 1 res.F.passes;
        Alcotest.(check bool) "converged" true res.F.converged;
        let _, res = solve ~effects:(moving ()) ~max_passes:1 straight in
        Alcotest.(check bool) "not converged when the counter moves" false
          res.F.converged);
    case "a moving counter reproduces the solver without the rule" (fun () ->
        List.iter
          (fun src ->
            List.iter
              (fun budget ->
                let cfg = build src in
                let res = F.solve (toy_config ~effects:(moving ()) budget) cfg in
                let states, passes, converged =
                  reference_solve (toy_config budget) cfg
                in
                Alcotest.(check int) "passes" passes res.F.passes;
                Alcotest.(check bool) "converged" converged res.F.converged;
                Alcotest.(check bool) "out-states" true
                  (same_states states res.F.out_states))
              [ 1; 2; 3; 50 ])
          reference_sources);
    case "a still counter reaches the same fixpoint in no more passes"
      (fun () ->
        List.iter
          (fun src ->
            let cfg = build src in
            let res = F.solve (toy_config 50) cfg in
            let states, passes, _ = reference_solve (toy_config 50) cfg in
            Alcotest.(check bool) "converged" true res.F.converged;
            Alcotest.(check bool) "no more passes" true (res.F.passes <= passes);
            Alcotest.(check bool) "out-states" true
              (same_states states res.F.out_states))
          reference_sources);
    case "rpo is stable across rebuilds" (fun () ->
        let src =
          "if ($c) {\n$a = 1;\n} else {\n$b = 2;\n}\nwhile ($d) {\n$e = 3;\n}"
        in
        Alcotest.(check (list int)) "same order"
          (Cfg.rpo (build src)) (Cfg.rpo (build src)));
    case "solver result is deterministic" (fun () ->
        let src = "if ($c) {\n$a = $_GET['x'];\n} else {\n$a = 'safe';\n}" in
        let _, r1 = solve src and _, r2 = solve src in
        Alcotest.(check bool) "same exit state" true
          (SMap.equal Bool.equal r1.F.exit_state r2.F.exit_state);
        Alcotest.(check int) "same pass count" r1.F.passes r2.F.passes);
  ]

let () =
  Alcotest.run "cfg"
    [ ("construction", cases); ("fixpoint engine", fixpoint_cases) ]
