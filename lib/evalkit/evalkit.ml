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
module Delta = Delta
module Ablation = Ablation
module History = History
module Scaling = Scaling
module Incremental = Incremental
module Editstorm = Editstorm
module Serve_bench = Serve_bench
module Chaos = Chaos
module Pattern_report = Pattern_report
module Faults = Faults
