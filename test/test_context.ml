(** E11 ground-truth tests: the context-sensitive sanitization pass
    ([--contexts]) must both find context-mismatch vulnerabilities the flat
    analysis misses (new TPs) and exonerate the properly-quoted foils the
    flat analysis flags (removed FPs) — the two halves of the precision
    delta claimed in EXPERIMENTS.md E11. *)

module D = Evalkit.Delta
module Gt = Corpus.Gt

let case name f = Alcotest.test_case name `Quick f

(* Running the suite is cheap (2 small plugins); compute it once. *)
let delta = lazy (D.contexts ())

(* the --contexts run: its seed delta is relative to the flat baseline *)
let ctx () = snd (D.pair (Lazy.force delta))

(* The table as the evaluation driver prints it, pinned byte for byte
   (captured before the experiments moved onto {!Evalkit.Delta}). *)
let e11 = {|
== E11: context-sensitive sanitization (--contexts) precision delta ==
context suite: 15 seeded sinks (9 real context mismatches, 6 adequate-sanitizer foils)
variant                   TP    FP    FN   Prec    Rec
phpSAFE (flat)             0     6     9     0%     0%
phpSAFE (--contexts)       9     0     0   100%   100%
new true positives (context mismatch): 9 [c0001/ctx-attr-unquoted, c0002/ctx-attr-unquoted, c0003/ctx-js-string, c0004/ctx-sql-numeric, c0005/ctx-sql-numeric, c0009/ctx-attr-unquoted, c0010/ctx-js-string, c0011/ctx-js-string, c0012/ctx-sql-numeric]
removed false positives (adequate sanitizer): 6 [c0006/trap-ctx-revert-body, c0007/trap-ctx-revert-body, c0008/trap-ctx-revert-attr, c0013/trap-ctx-revert-body, c0014/trap-ctx-revert-attr, c0015/trap-ctx-revert-attr]
|}

let cases =
  [
    case "suite composition matches the generator" (fun () ->
        let d = Lazy.force delta in
        Alcotest.(check bool) "has reals" true (d.D.d_reals > 0);
        Alcotest.(check bool) "has foils" true (d.D.d_foils > 0));
    case "--contexts finds context-mismatch TPs the flat pass misses"
      (fun () ->
        let d = ctx () in
        Alcotest.(check bool) "at least one new TP" true
          (List.length d.D.dr_new_tp >= 1);
        List.iter
          (fun s ->
            Alcotest.(check bool)
              (s.Gt.seed_id ^ " is a real seed")
              true (Gt.is_real s))
          d.D.dr_new_tp);
    case "--contexts removes foil FPs the flat pass reports" (fun () ->
        let d = ctx () in
        Alcotest.(check bool) "at least one removed FP" true
          (List.length d.D.dr_removed_fp >= 1);
        List.iter
          (fun s ->
            Alcotest.(check bool)
              (s.Gt.seed_id ^ " is a foil")
              false (Gt.is_real s))
          d.D.dr_removed_fp);
    case "context pass strictly improves precision and recall" (fun () ->
        let flat, ctx = D.pair (Lazy.force delta) in
        let module M = Evalkit.Metrics in
        Alcotest.(check bool) "precision up" true
          (M.precision ctx.D.dr_metrics > M.precision flat.D.dr_metrics
          || Float.is_nan (M.precision flat.D.dr_metrics));
        Alcotest.(check bool) "recall up" true
          (M.recall ctx.D.dr_metrics > M.recall flat.D.dr_metrics));
    case "every new TP names a context-mismatch pattern" (fun () ->
        let d = ctx () in
        List.iter
          (fun s ->
            Alcotest.(check bool)
              (s.Gt.seed_id ^ "/" ^ s.Gt.pattern)
              true
              (List.mem s.Gt.pattern
                 [ "ctx-attr-unquoted"; "ctx-js-string"; "ctx-sql-numeric" ]))
          d.D.dr_new_tp);
    case "every removed FP names a revert foil" (fun () ->
        let d = ctx () in
        List.iter
          (fun s ->
            Alcotest.(check bool)
              (s.Gt.seed_id ^ "/" ^ s.Gt.pattern)
              true
              (List.mem s.Gt.pattern
                 [ "trap-ctx-revert-body"; "trap-ctx-revert-attr" ]))
          d.D.dr_removed_fp);
    case "the printed table is deterministic across runs" (fun () ->
        Alcotest.(check string) "pinned output" e11
          (Format.asprintf "%a" D.print_contexts (Lazy.force delta)));
  ]

let () = Alcotest.run "context delta" [ ("E11 (--contexts)", cases) ]
