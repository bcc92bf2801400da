(** Content digests for the incremental-analysis cache.

    Two flavours:
    - {!string}/{!hex} hash raw bytes (file sources) — the fast path, one
      MD5 pass over the text;
    - {!structural} hashes arbitrary OCaml values (ASTs, configurations,
      budgets) through their [Marshal] representation, so two values digest
      equal exactly when they are structurally equal — including source
      positions, which analysis results depend on.

    Digests are returned as lowercase hex so they can double as on-disk
    file names in {!Store}. *)

(** Raw 16-byte MD5 of a string (compatible with [Stdlib.Digest.string]);
    used where the digest is only a hash-table key. *)
let string s = Stdlib.Digest.string s

(** Lowercase hex MD5 of a string. *)
let hex s = Stdlib.Digest.to_hex (Stdlib.Digest.string s)

(** Structural digest of an arbitrary (closure-free) value: hex MD5 of its
    [Marshal] bytes.  Structurally equal values — same constructors, same
    strings, same positions — digest equal.  [No_sharing] matters: default
    marshalling encodes repeated physical blocks as back-references, so two
    structurally equal values with different internal sharing (an
    incremental AST with reused statements vs. a cold parse, whose interned lexemes share
    differently) would otherwise digest differently. *)
let structural v = hex (Marshal.to_string v [ Marshal.No_sharing ])

(** Digest of a list of digests (or any strings): order-sensitive. *)
let combine parts = hex (String.concat "\x00" parts)
