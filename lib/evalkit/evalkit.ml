(** Evaluation harness facade: runs the three tools on both corpus versions
    and regenerates every table and figure of the paper's §V. *)

module Metrics = Metrics
module Matching = Matching
module Runner = Runner
module Venn = Venn
module Vectors = Vectors
module Inertia = Inertia
module Robustness = Robustness
module Tables = Tables

let evaluate = Runner.evaluate

module Delta = Delta
module Ablation = Ablation

(** Run both versions and print the full report to [ppf].  With [~pool] the
    analysis fans out across domains (same results, less wall time). *)
let evaluate_and_report ?with_ablation ?pool ppf =
  let ev2012 = Runner.evaluate ?pool Corpus.Plan.V2012 in
  let ev2014 = Runner.evaluate ?pool Corpus.Plan.V2014 in
  Tables.full_report ?with_ablation ppf ~ev2012 ~ev2014;
  (ev2012, ev2014)

module History = History
module Scaling = Scaling
module Incremental = Incremental
module Editstorm = Editstorm
module Serve_bench = Serve_bench
module Chaos = Chaos
module Pattern_report = Pattern_report
module Faults = Faults
