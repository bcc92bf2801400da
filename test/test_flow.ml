(** E13 ground-truth tests: the flow-sensitive body walk ([--flow]) must
    both find the branch- and loop-carried taint the flat walk loses (new
    TPs) and exonerate the exiting-branch foils the flat walk flags
    (removed FPs) — the two halves of the precision delta claimed in
    EXPERIMENTS.md E13. *)

module D = Evalkit.Delta
module Gt = Corpus.Gt

let case name f = Alcotest.test_case name `Quick f

(* Running the suite is cheap (2 small plugins); compute it once. *)
let delta = lazy (D.flow ())

(* (flat, --flow) runs; the --flow seed delta is relative to flat *)
let runs () = D.pair (Lazy.force delta)

(* The table as the evaluation driver prints it, pinned byte for byte
   (captured before the experiments moved onto {!Evalkit.Delta}). *)
let e13 = {|
== E13: flow-sensitive sanitization (--flow) precision delta ==
flow suite: 18 seeded sinks (13 real flow-carried flaws, 5 exiting-branch foils)
variant                   TP    FP    FN   Prec    Rec
phpSAFE (flat)             7     5     6    58%    54%
phpSAFE (--flow)          13     0     0   100%   100%
new true positives (flow-carried taint): 6 [f0001/flow-branch-taint, f0002/flow-branch-taint, f0003/flow-loop-carried, f0008/flow-branch-taint, f0009/flow-loop-carried, f0010/flow-loop-carried]
removed false positives (exiting branch): 5 [f0006/trap-flow-exit-branch, f0007/trap-flow-exit-branch, f0012/trap-flow-exit-branch, f0013/trap-flow-exit-branch, f0014/trap-flow-exit-branch]
|}

let cases =
  [
    case "suite composition matches the generator" (fun () ->
        let d = Lazy.force delta in
        Alcotest.(check bool) "has reals" true (d.D.d_reals > 0);
        Alcotest.(check bool) "has foils" true (d.D.d_foils > 0));
    case "--flow finds the flow-carried TPs the flat walk misses" (fun () ->
        let _, d = runs () in
        Alcotest.(check bool) "at least one new TP" true
          (List.length d.D.dr_new_tp >= 1);
        List.iter
          (fun s ->
            Alcotest.(check bool)
              (s.Gt.seed_id ^ " is a real seed")
              true (Gt.is_real s))
          d.D.dr_new_tp);
    case "--flow removes every exiting-branch foil FP" (fun () ->
        let _, d = runs () in
        Alcotest.(check bool) "at least one removed FP" true
          (List.length d.D.dr_removed_fp >= 1);
        (* the acceptance bar: the flow walk removes every seeded foil the
           flat walk flags, i.e. the flow run has zero trap FPs *)
        Alcotest.(check int) "no trap FP left under --flow" 0
          (List.length d.D.dr_classified.Evalkit.Matching.cl_trap_fp);
        List.iter
          (fun s ->
            Alcotest.(check bool)
              (s.Gt.seed_id ^ " is a foil")
              false (Gt.is_real s))
          d.D.dr_removed_fp);
    case "--flow keeps every seeded TP (full recall, full precision)"
      (fun () ->
        let d = Lazy.force delta in
        let module M = Evalkit.Metrics in
        let _, flow = runs () in
        Alcotest.(check int) "all reals found" d.D.d_reals
          flow.D.dr_metrics.M.tp;
        Alcotest.(check int) "no FN" 0 flow.D.dr_metrics.M.fn;
        Alcotest.(check int) "no FP" 0 flow.D.dr_metrics.M.fp);
    case "every new TP names a flow-carried pattern" (fun () ->
        let _, d = runs () in
        List.iter
          (fun s ->
            Alcotest.(check bool)
              (s.Gt.seed_id ^ "/" ^ s.Gt.pattern)
              true
              (List.mem s.Gt.pattern
                 [ "flow-branch-taint"; "flow-loop-carried" ]))
          d.D.dr_new_tp);
    case "every removed FP names the exiting-branch foil" (fun () ->
        let _, d = runs () in
        List.iter
          (fun s ->
            Alcotest.(check string)
              (s.Gt.seed_id ^ "/" ^ s.Gt.pattern)
              "trap-flow-exit-branch" s.Gt.pattern)
          d.D.dr_removed_fp);
    case "raw heredoc and <?= seeds are kept by both variants" (fun () ->
        let flat, flow = runs () in
        let raw =
          List.filter
            (fun (s : Gt.seed) ->
              List.mem s.Gt.pattern
                [ "flow-heredoc-sqli"; "flow-short-echo-xss" ])
            flat.D.dr_classified.Evalkit.Matching.cl_tp
        in
        Alcotest.(check bool) "flat keeps the raw seeds" true
          (List.length raw >= 2);
        List.iter
          (fun (s : Gt.seed) ->
            Alcotest.(check bool)
              (s.Gt.seed_id ^ " kept under --flow")
              true
              (List.exists
                 (fun (s' : Gt.seed) ->
                   String.equal s.Gt.seed_id s'.Gt.seed_id)
                 flow.D.dr_classified.Evalkit.Matching.cl_tp))
          raw);
    case "the printed table is deterministic across runs" (fun () ->
        Alcotest.(check string) "pinned output" e13
          (Format.asprintf "%a" D.print_flow (Lazy.force delta)));
  ]

let () = Alcotest.run "flow delta" [ ("E13 (--flow)", cases) ]
