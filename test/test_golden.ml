(** Golden tables: the E8 ablation output pinned byte for byte.

    The ablation runs its variants sequentially and classifies against
    exact generator labels, so its tables are deterministic.  The expected
    text was captured from the evaluation driver before the ablation moved
    onto the shared {!Evalkit.Delta} harness; any change to the analyzers,
    the corpus or the harness that moves a number or a column shows up
    here as a diff.  The E11, E13 and E16 tables are pinned the same way
    in test_context, test_flow and test_classes. *)

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

let () = Alcotest.run "golden" [ ("experiment tables", cases) ]
