(** Deterministic fault injection for the robustness harness.

    Mutates well-formed corpus plugins into the pathological inputs the
    fault-tolerance layer must survive: truncated and byte-corrupted
    sources, unterminated strings/heredocs, nesting beyond the parser
    fuel, include cycles, binary blobs and empty files.  All randomness
    comes from the corpus PRNG ({!Corpus.Prng}), so a (seed, count) pair
    always produces the same mutants — the fault suite's robustness table
    is reproducible bit-for-bit, sequentially or across domains.

    The invariant under test ([test/test_faults.ml]): every analyzer
    returns a {!Secflow.Report.result} for every mutant — structured
    [Failed _] outcomes, never an escaped exception, never a hang. *)

type kind =
  | Truncate  (** cut the source at a random byte offset *)
  | Corrupt_bytes  (** overwrite 1–8 random bytes with random values *)
  | Unterminated_string  (** append a string literal that never closes *)
  | Unterminated_heredoc  (** append a [<<<EOT] with no terminator *)
  | Deep_nesting
      (** append expressions nested past the parser's fuel limit *)
  | Include_cycle
      (** add mutually-including files wired into an existing one *)
  | Binary_blob  (** replace a source with random binary data *)
  | Empty_file  (** replace a source with the empty string *)

val all_kinds : kind list

val kind_label : kind -> string

val mutants :
  seed:int -> count:int -> Phplang.Project.t -> (kind * Phplang.Project.t) list
(** [mutants ~seed ~count project] derives [count] mutants, cycling through
    {!all_kinds} with an independent PRNG per mutant.  Deterministic in
    (seed, count, project). *)
