(** Variant-delta harness (see delta.mli) and the three dedicated-suite
    experiments built on it:

    - {b E11} ([--contexts]): new TPs are real context mismatches
      (inadequate sanitizer for the inferred sink context) the flat model
      accepts as sanitized; removed FPs are adequate-sanitizer foils the
      flat revert model flags.
    - {b E13} ([--flow]): new TPs are branch- and loop-carried taint the
      flat last-write-wins walk (§III.C) loses before the sink; removed
      FPs are exiting-branch foils whose tainted overwrite the CFG never
      joins back.
    - {b E16}: per-class precision/recall of cmdi, lfi, ssrf and so-sqli.
      Two-phase phpSAFE ([--second-order]) is the only variant expected to
      reach the stored-SQLi seeds; single-pass phpSAFE isolates the
      two-phase machinery's contribution; RIPS knows the CMDi/LFI builtins
      but has no CMS profile, URL-shape discrimination or persistence
      model; Pixy (XSS/SQLi only) is the per-class floor.

    E8 ({!Ablation}) runs its variants through {!run} too, against the
    main corpus's detected union. *)

open Secflow

type run = {
  dr_name : string;
  dr_output : Matching.tool_output;
  dr_classified : Matching.classified;
  dr_metrics : Metrics.t;
  dr_by_kind : (Vuln.kind * Metrics.t) list;
  dr_new_tp : Corpus.Gt.seed list;
  dr_removed_fp : Corpus.Gt.seed list;
}

type t = { d_reals : int; d_foils : int; d_runs : run list }

let phpsafe name opts : Tool.t =
  { Tool.name; analyze_project = (fun p -> Phpsafe.analyze_project ~opts p) }

module Ids = Set.Make (String)

(* the seeds of [seeds] whose id is not in [other], sorted by id *)
let seeds_not_in other seeds =
  let id (s : Corpus.Gt.seed) = s.Corpus.Gt.seed_id in
  let ids = Ids.of_list (List.map id other) in
  List.filter (fun s -> not (Ids.mem (id s) ids)) seeds
  |> List.sort (fun a b -> String.compare (id a) (id b))

let run ?union ?(kinds = []) (suite : Corpus.t) (variants : Tool.t list) : t =
  let reals = List.filter Corpus.Gt.is_real suite.Corpus.seeds in
  let union = Option.value union ~default:reals in
  let classified =
    List.map
      (fun (tool : Tool.t) ->
        let out = (Runner.run_tool tool suite).Runner.tr_output in
        (tool.Tool.name, out, Matching.classify ~seeds:suite.Corpus.seeds out))
      variants
  in
  let base =
    match classified with (_, _, cl) :: _ -> cl | [] -> invalid_arg "Delta.run"
  in
  let runs =
    List.map
      (fun (name, out, (cl : Matching.classified)) ->
        { dr_name = name;
          dr_output = out;
          dr_classified = cl;
          dr_metrics = Matching.metrics_for ~union cl;
          dr_by_kind =
            List.map
              (fun k -> (k, Matching.metrics_for ~kind:k ~union cl))
              kinds;
          dr_new_tp = seeds_not_in base.Matching.cl_tp cl.Matching.cl_tp;
          dr_removed_fp =
            seeds_not_in cl.Matching.cl_trap_fp base.Matching.cl_trap_fp })
      classified
  in
  { d_reals = List.length reals;
    d_foils = List.length suite.Corpus.seeds - List.length reals;
    d_runs = runs }

let find t name = List.find (fun r -> String.equal r.dr_name name) t.d_runs

let pair t =
  match t.d_runs with
  | [ base; variant ] -> (base, variant)
  | _ -> invalid_arg "Delta.pair: not a two-variant delta"

(* ------------------------------------------------------------------ *)
(* Experiments                                                        *)
(* ------------------------------------------------------------------ *)

let d = Phpsafe.default_options

let contexts () =
  run (Corpus.Context_suite.generate ())
    [ phpsafe "phpSAFE (flat)" d;
      phpsafe "phpSAFE (--contexts)" { d with Phpsafe.infer_contexts = true } ]

let flow () =
  run (Corpus.Flow_suite.generate ())
    [ phpsafe "phpSAFE (flat)" d;
      phpsafe "phpSAFE (--flow)" { d with Phpsafe.flow_sensitive = true } ]

let class_kinds =
  [ Vuln.Cmdi; Vuln.Path_traversal; Vuln.Ssrf; Vuln.Second_order_sqli ]

let so_variant_name = "phpSAFE (--second-order)"
let flat_variant_name = "phpSAFE"

let classes () =
  run ~kinds:class_kinds (Corpus.Classes_suite.generate ())
    [ { Tool.name = so_variant_name;
        analyze_project = (fun p -> Phpsafe.analyze_project_so ~opts:d p) };
      phpsafe flat_variant_name d; Rips.tool; Pixy.tool ]

let so_only_two_phase t =
  List.for_all
    (fun r ->
      let m = List.assoc Vuln.Second_order_sqli r.dr_by_kind in
      if String.equal r.dr_name so_variant_name then m.Metrics.fn = 0
      else m.Metrics.tp = 0)
    t.d_runs

(* ------------------------------------------------------------------ *)
(* Tables                                                             *)
(* ------------------------------------------------------------------ *)

let pp_seed_ids ppf seeds =
  Format.pp_print_string ppf
    (String.concat ", "
       (List.map
          (fun (s : Corpus.Gt.seed) ->
            Printf.sprintf "%s/%s" s.Corpus.Gt.seed_id s.Corpus.Gt.pattern)
          seeds))

(* the E11/E13 layout: one row per variant, then the variant's seed delta *)
let print_pair ~title ~suite ~reals ~foils ~gained ~lost ppf t =
  Format.fprintf ppf "@.== %s ==@." title;
  Format.fprintf ppf "%s suite: %d seeded sinks (%d %s, %d %s)@." suite
    (t.d_reals + t.d_foils) t.d_reals reals t.d_foils foils;
  Format.fprintf ppf "%-22s %5s %5s %5s %6s %6s@." "variant" "TP" "FP" "FN"
    "Prec" "Rec";
  List.iter
    (fun r ->
      let m = r.dr_metrics in
      Format.fprintf ppf "%-22s %5d %5d %5d %6s %6s@." r.dr_name m.Metrics.tp
        m.Metrics.fp m.Metrics.fn
        (Metrics.pct (Metrics.precision m))
        (Metrics.pct (Metrics.recall m)))
    t.d_runs;
  let _, v = pair t in
  Format.fprintf ppf "new true positives (%s): %d [%a]@." gained
    (List.length v.dr_new_tp) pp_seed_ids v.dr_new_tp;
  Format.fprintf ppf "removed false positives (%s): %d [%a]@." lost
    (List.length v.dr_removed_fp) pp_seed_ids v.dr_removed_fp

let print_contexts =
  print_pair
    ~title:"E11: context-sensitive sanitization (--contexts) precision delta"
    ~suite:"context" ~reals:"real context mismatches"
    ~foils:"adequate-sanitizer foils" ~gained:"context mismatch"
    ~lost:"adequate sanitizer"

let print_flow =
  print_pair ~title:"E13: flow-sensitive sanitization (--flow) precision delta"
    ~suite:"flow" ~reals:"real flow-carried flaws" ~foils:"exiting-branch foils"
    ~gained:"flow-carried taint" ~lost:"exiting branch"

let print_classes ppf t =
  Format.fprintf ppf
    "@.== E16: new vulnerability classes (cmdi, lfi, ssrf, so-sqli) ==@.";
  Format.fprintf ppf
    "class suite: %d seeded sinks (%d real, %d sanitized/shape foils)@."
    (t.d_reals + t.d_foils) t.d_reals t.d_foils;
  Format.fprintf ppf "%-24s %-8s %3s %3s %3s %6s %6s@." "variant" "class" "TP"
    "FP" "FN" "Prec" "Rec";
  List.iter
    (fun r ->
      List.iter
        (fun (k, (m : Metrics.t)) ->
          Format.fprintf ppf "%-24s %-8s %3d %3d %3d %6s %6s@." r.dr_name
            (Vuln.kind_spec_name k) m.Metrics.tp m.Metrics.fp m.Metrics.fn
            (Metrics.pct (Metrics.precision m))
            (Metrics.pct (Metrics.recall m)))
        r.dr_by_kind)
    t.d_runs;
  Format.fprintf ppf
    "second-order seeds reachable only through the two-phase pass: %b@."
    (so_only_two_phase t)
