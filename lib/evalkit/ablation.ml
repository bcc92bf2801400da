(** Ablation study over phpSAFE's design choices (DESIGN.md, experiment E8).

    Each variant disables one feature the paper credits for phpSAFE's
    results — or enables the path-sensitivity extension from its future
    work — and re-runs the full corpus.  The deltas quantify how much each
    feature contributes:

    - {b no-wordpress-profile}: generic PHP configuration only (what RIPS
      knows).  Expected: the 151/179 OOP detections disappear (§V.A).
    - {b no-uncalled-analysis}: skip functions never called from plugin code
      (what Pixy does).  Expected: hook/callback vulnerabilities are lost
      (§III.B "a very important aspect of security tools targeting plugin
      code").
    - {b no-include-resolution}: analyze files in isolation.  Expected: the
      memory budget never trips (the deep files are recovered) but
      cross-file flows are lost.
    - {b no-revert-modelling}: drop [stripslashes] & co.  Expected: the
      revert false positives disappear, but so do the §V.C
      wp-photo-album-plus-style detections where [stripslashes] sits on the
      tainted path.
    - {b guard-aware (future work)}: treat [if (!is_numeric($x)) exit;]
      as validation.  Expected: the numeric-guard false positives disappear
      with no true-positive loss. *)

type variant = {
  ab_name : string;
  ab_options : Phpsafe.options;
}

let variants : variant list =
  let d = Phpsafe.default_options in
  [
    { ab_name = "full (paper configuration)"; ab_options = d };
    { ab_name = "no-wordpress-profile";
      ab_options = { d with Phpsafe.config = Phpsafe.Config.generic_php } };
    { ab_name = "no-uncalled-analysis";
      ab_options = { d with Phpsafe.analyze_uncalled = false } };
    { ab_name = "no-include-resolution";
      ab_options = { d with Phpsafe.resolve_includes = false } };
    { ab_name = "no-revert-modelling";
      ab_options =
        { d with
          Phpsafe.config =
            { Phpsafe.Wordpress.default_config with Phpsafe.Config.reverts = [] } } };
    { ab_name = "guard-aware (future work)";
      ab_options = { d with Phpsafe.respect_guards = true } };
  ]

type row = {
  ab_variant : string;
  ab_metrics : Metrics.t;          (** global TP/FP/FN vs the full union *)
  ab_oop_tp : int;                 (** §V.A WordPress-object detections *)
  ab_failed_files : int;
}

(** Run every variant over [corpus] through the shared {!Delta} core; FN is
    computed against the union of the {e default} three-tool evaluation
    [ev] so that variants are compared on the same reference set. *)
let run (ev : Runner.evaluation) : row list =
  let delta =
    Delta.run ~union:ev.Runner.ev_union ev.Runner.ev_corpus
      (List.map
         (fun v -> Delta.phpsafe ("phpSAFE[" ^ v.ab_name ^ "]") v.ab_options)
         variants)
  in
  List.map2
    (fun v (run : Delta.run) ->
      let oop_tp =
        List.length
          (List.filter Corpus.Gt.is_oop_wordpress
             run.Delta.dr_classified.Matching.cl_tp)
      in
      let failed =
        List.fold_left
          (fun acc (_, (r : Secflow.Report.result)) ->
            acc + List.length (Secflow.Report.failed_files r))
          0 run.Delta.dr_output.Matching.to_results
      in
      { ab_variant = v.ab_name; ab_metrics = run.Delta.dr_metrics;
        ab_oop_tp = oop_tp; ab_failed_files = failed })
    variants delta.Delta.d_runs

let print ppf ~(ev : Runner.evaluation) rows =
  Format.fprintf ppf "@.== E8: phpSAFE ablation study, version %s ==@."
    (Corpus.Plan.version_to_string ev.Runner.ev_version);
  Format.fprintf ppf "%-28s %5s %5s %5s %6s %6s %8s %7s@." "variant" "TP" "FP"
    "FN" "Prec" "Rec" "OOP-TP" "failed";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-28s %5d %5d %5d %6s %6s %8d %7d@." r.ab_variant
        r.ab_metrics.Metrics.tp r.ab_metrics.Metrics.fp r.ab_metrics.Metrics.fn
        (Metrics.pct (Metrics.precision r.ab_metrics))
        (Metrics.pct (Metrics.recall r.ab_metrics))
        r.ab_oop_tp r.ab_failed_files)
    rows
