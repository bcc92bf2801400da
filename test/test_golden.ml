(** Golden tables: the E8 ablation output pinned byte for byte.

    The ablation runs its variants sequentially and classifies against
    exact generator labels, so its tables are deterministic.  The expected
    text was captured from the evaluation driver before the ablation moved
    onto the shared {!Evalkit.Delta} harness; any change to the analyzers,
    the corpus or the harness that moves a number or a column shows up
    here as a diff.  The E11, E13 and E16 tables are pinned the same way
    in test_context, test_flow and test_classes.

    The report digests pin the findings themselves: the MD5 of the
    [phpsafe-report/1] JSON of every plugin of a corpus version, for
    phpSAFE's published mode and its [--flow], [--contexts] and two-phase
    [--flow --contexts --second-order] extensions, and for the RIPS and
    Pixy baselines.  A digest moves when a finding is added, dropped,
    changed in any field, or reordered. *)

let e8_2012 = {|
== E8: phpSAFE ablation study, version 2012 ==
variant                         TP    FP    FN   Prec    Rec   OOP-TP  failed
full (paper configuration)     315    65    79    83%    80%      151       1
no-wordpress-profile           164    63   230    72%    42%        0       1
no-uncalled-analysis           224    65   170    78%    57%      151       1
no-include-resolution          370    65    24    85%    94%      151       0
no-revert-modelling            266    42   128    86%    68%      102       1
guard-aware (future work)      315    23    79    93%    80%      151       1
|}

let e8_2014 = {|
== E8: phpSAFE ablation study, version 2014 ==
variant                         TP    FP    FN   Prec    Rec   OOP-TP  failed
full (paper configuration)     383    62   203    86%    65%      179       3
no-wordpress-profile           204    58   382    78%    35%        0       3
no-uncalled-analysis           268    62   318    81%    46%      179       3
no-include-resolution          578    62     8    90%    99%      179       0
no-revert-modelling            325    45   261    88%    55%      121       3
guard-aware (future work)      383    17   203    96%    65%      179       3
|}

let cases =
  [
    Alcotest.test_case "E8 ablation tables (2012, 2014)" `Quick (fun () ->
        List.iter
          (fun (version, expected) ->
            let ev = Evalkit.Runner.evaluate version in
            Alcotest.(check string)
              (Corpus.Plan.version_to_string version)
              expected
              (Format.asprintf "%t" (fun ppf ->
                   Evalkit.Ablation.(print ppf ~ev (run ev)))))
          [ (Corpus.Plan.V2012, e8_2012); (Corpus.Plan.V2014, e8_2014) ]);
  ]

(* Each mode's analysis, as phpsafe_cli runs it for the matching flags
   (and [--tool rips|pixy]). *)
let modes =
  let opts ~flow ~contexts =
    { Phpsafe.default_options with
      Phpsafe.flow_sensitive = flow;
      infer_contexts = contexts }
  in
  [ ("flat", Phpsafe.analyze_project ~opts:(opts ~flow:false ~contexts:false));
    ("--flow", Phpsafe.analyze_project ~opts:(opts ~flow:true ~contexts:false));
    ("--contexts",
     Phpsafe.analyze_project ~opts:(opts ~flow:false ~contexts:true));
    ("--flow --contexts --second-order",
     Phpsafe.analyze_project_so ~opts:(opts ~flow:true ~contexts:true));
    ("RIPS", Rips.analyze_project);
    ("Pixy", Pixy.analyze_project) ]

(* MD5 of the newline-separated per-plugin reports, in corpus order *)
let report_digest analyze (corpus : Corpus.t) =
  Corpus.projects corpus
  |> List.map (fun p -> Secflow.Report.to_json (analyze p))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let expected_digests =
  [ (Corpus.Plan.V2012,
     [ ("flat", "0ce1c2f317f6145b1475d0956be02759");
       ("--flow", "0ce1c2f317f6145b1475d0956be02759");
       ("--contexts", "dd3d38877d15d44015c6c9b675ee9988");
       ("--flow --contexts --second-order", "dd3d38877d15d44015c6c9b675ee9988");
       ("RIPS", "6fe2bca008b189a404c4b2a9961508a5");
       ("Pixy", "9a6b1566cdf9367e42b85864146fff66") ]);
    (Corpus.Plan.V2014,
     [ ("flat", "9d91c2755d3d30adff193cba3e4e4d9c");
       ("--flow", "9d91c2755d3d30adff193cba3e4e4d9c");
       ("--contexts", "6c585052c5281f8f979392352e308444");
       ("--flow --contexts --second-order", "6c585052c5281f8f979392352e308444");
       ("RIPS", "200cddbb175e1f23ab8b18798b731480");
       ("Pixy", "097ce15ddc1a7129ca6663141c13676d") ]) ]

let digest_cases =
  List.map
    (fun (version, expected) ->
      let name = Corpus.Plan.version_to_string version in
      Alcotest.test_case name `Quick (fun () ->
          (* the analysis itself, not a persistent cache of it *)
          Phplang.Store.set_root None;
          let corpus = Corpus.generate version in
          List.iter
            (fun (mode, analyze) ->
              Alcotest.(check string)
                (name ^ " " ^ mode)
                (List.assoc mode expected)
                (report_digest analyze corpus))
            modes))
    expected_digests

let () =
  Alcotest.run "golden"
    [ ("experiment tables", cases); ("report digests", digest_cases) ]
