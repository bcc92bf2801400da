(** E16 class suite: the four new vulnerability classes (cmdi, lfi, ssrf,
    so-sqli) — seed detection, per-class precision/recall floors, the
    two-phase-only reachability of the second-order seeds, and output
    determinism. *)

open Secflow
module D = Evalkit.Delta

let delta = lazy (D.classes ())

let metrics_for_kind (r : D.run) k = List.assoc k r.D.dr_by_kind

let case name f = Alcotest.test_case name `Quick f

let check_pct what value =
  Alcotest.(check bool)
    (Printf.sprintf "%s >= 0.9 (got %f)" what value)
    true (value >= 0.9)

let suite_cases =
  [
    case "suite shape: 4 plugins, reals and foils for every class" (fun () ->
        let suite = Corpus.Classes_suite.generate () in
        Alcotest.(check int) "plugins" 4 (List.length suite.Corpus.plugins);
        List.iter
          (fun k ->
            let of_kind p =
              List.filter
                (fun s ->
                  p s && Vuln.equal_kind (Corpus.Gt.kind_of s) k)
                suite.Corpus.seeds
            in
            Alcotest.(check bool)
              (Vuln.kind_spec_name k ^ " has reals")
              true
              (List.length (of_kind Corpus.Gt.is_real) >= 2);
            Alcotest.(check bool)
              (Vuln.kind_spec_name k ^ " has foils")
              true
              (List.length (of_kind (fun s -> not (Corpus.Gt.is_real s))) >= 1))
          D.class_kinds);
    case "suite generation is deterministic" (fun () ->
        let a = Corpus.Classes_suite.generate ()
        and b = Corpus.Classes_suite.generate () in
        Alcotest.(check bool) "equal" true (a = b));
  ]

(* The table as the evaluation driver prints it, pinned byte for byte
   (captured before the experiments moved onto {!Evalkit.Delta}). *)
let e16 = {|
== E16: new vulnerability classes (cmdi, lfi, ssrf, so-sqli) ==
class suite: 22 seeded sinks (14 real, 8 sanitized/shape foils)
variant                  class     TP  FP  FN   Prec    Rec
phpSAFE (--second-order) cmdi       3   0   0   100%   100%
phpSAFE (--second-order) lfi        4   0   0   100%   100%
phpSAFE (--second-order) ssrf       4   0   0   100%   100%
phpSAFE (--second-order) so-sqli    3   0   0   100%   100%
phpSAFE                  cmdi       3   0   0   100%   100%
phpSAFE                  lfi        4   0   0   100%   100%
phpSAFE                  ssrf       4   0   0   100%   100%
phpSAFE                  so-sqli    0   0   3      -     0%
RIPS                     cmdi       2   0   1   100%    67%
RIPS                     lfi        4   1   0    80%   100%
RIPS                     ssrf       0   0   4      -     0%
RIPS                     so-sqli    0   0   3      -     0%
Pixy                     cmdi       0   0   3      -     0%
Pixy                     lfi        0   0   4      -     0%
Pixy                     ssrf       0   0   4      -     0%
Pixy                     so-sqli    0   0   3      -     0%
second-order seeds reachable only through the two-phase pass: true
|}

let e16_cases =
  [
    case "phpSAFE two-phase: >=90% precision and recall per class" (fun () ->
        let t = Lazy.force delta in
        let v = D.find t D.so_variant_name in
        List.iter
          (fun k ->
            let m = metrics_for_kind v k in
            let name = Vuln.kind_spec_name k in
            check_pct (name ^ " precision") (Evalkit.Metrics.precision m);
            check_pct (name ^ " recall") (Evalkit.Metrics.recall m))
          D.class_kinds);
    case "phpSAFE two-phase: no stray findings on the class suite" (fun () ->
        let t = Lazy.force delta in
        let v = D.find t D.so_variant_name in
        Alcotest.(check int) "stray" 0
          (List.length v.D.dr_classified.Evalkit.Matching.cl_stray_fp));
    case "second-order seeds are reachable only via the two-phase pass"
      (fun () ->
        let t = Lazy.force delta in
        Alcotest.(check bool) "so-only-two-phase" true (D.so_only_two_phase t);
        let flat = D.find t D.flat_variant_name in
        let m = metrics_for_kind flat Vuln.Second_order_sqli in
        Alcotest.(check int) "flat finds none" 0 m.Evalkit.Metrics.tp);
    case "single-pass phpSAFE still finds every first-order seed" (fun () ->
        let t = Lazy.force delta in
        let flat = D.find t D.flat_variant_name in
        List.iter
          (fun k ->
            let m = metrics_for_kind flat k in
            Alcotest.(check int)
              (Vuln.kind_spec_name k ^ " FN only so-sqli")
              (match k with Vuln.Second_order_sqli -> 3 | _ -> 0)
              m.Evalkit.Metrics.fn)
          D.class_kinds);
    case "RIPS: finds cmdi/lfi builtins, blind to ssrf and so-sqli" (fun () ->
        let t = Lazy.force delta in
        let rips =
          List.find
            (fun (v : D.run) ->
              v.D.dr_name <> D.so_variant_name
              && v.D.dr_name <> D.flat_variant_name
              && v.D.dr_name <> "Pixy")
            t.D.d_runs
        in
        Alcotest.(check bool) "some cmdi" true
          ((metrics_for_kind rips Vuln.Cmdi).Evalkit.Metrics.tp > 0);
        Alcotest.(check bool) "some lfi" true
          ((metrics_for_kind rips Vuln.Path_traversal).Evalkit.Metrics.tp > 0);
        Alcotest.(check int) "no ssrf" 0
          (metrics_for_kind rips Vuln.Ssrf).Evalkit.Metrics.tp;
        Alcotest.(check int) "no so-sqli" 0
          (metrics_for_kind rips Vuln.Second_order_sqli).Evalkit.Metrics.tp);
    case "Pixy: blind to every new class" (fun () ->
        let t = Lazy.force delta in
        let pixy =
          List.find (fun (v : D.run) -> v.D.dr_name = "Pixy") t.D.d_runs
        in
        List.iter
          (fun k ->
            Alcotest.(check int)
              (Vuln.kind_spec_name k ^ " tp")
              0
              (metrics_for_kind pixy k).Evalkit.Metrics.tp)
          D.class_kinds);
    case "E16 table is deterministic across runs" (fun () ->
        Alcotest.(check string) "pinned table" e16
          (Format.asprintf "%a" D.print_classes (Lazy.force delta)));
  ]

let () =
  Alcotest.run "classes"
    [ ("class suite", suite_cases); ("E16 per-class metrics", e16_cases) ]
