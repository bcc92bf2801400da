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

let solve ?(max_passes = 50) src =
  let cfg = build src in
  ( cfg,
    F.solve
      { F.init = SMap.empty; bottom = SMap.empty;
        join = SMap.union (fun _ a b -> Some (a || b));
        equal = SMap.equal Bool.equal;
        transfer = toy_transfer; max_passes }
      cfg )

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
