(** E17 — sub-file incremental re-analysis under an edit storm (beyond
    the paper).

    A deterministic, seeded storm of small edits is applied to the largest
    V.2012 plugin, and after every edit the {e whole corpus} is
    re-analyzed twice — the unit of work is the corpus because that is
    what a watch session over a plugin collection re-checks on every
    change:

    - {e incremental}: the long-lived warm path — the edited file goes
      through {!Phplang.Project.Increment.update} (checkpointed re-lexing
      of the damaged region, re-parse of the changed top-level statements
      only, the others reused), the persistent {!Phplang.Store} stays on,
      and every plugin is analyzed live over the warm parse caches;
    - {e full}: the cold path — the store is disabled, the in-memory parse
      memo is bypassed, and every plugin is parsed and analyzed from
      scratch.

    The two rendered reports must be byte-identical after every edit —
    incrementality is an accelerator, never an approximation.  Four edit
    shapes exercise every pipeline path: [single-def] (a statement
    inserted into one function body — one statement re-parsed),
    [whitespace] (lexically trivial damage), [cross-def] (one update
    touching two definitions — both re-parsed, no fallback), and
    [signature] (a parameter added — the def's summary changes shape). *)

type kind = Single_def | Whitespace | Cross_def | Signature

let kind_name = function
  | Single_def -> "single-def"
  | Whitespace -> "whitespace"
  | Cross_def -> "cross-def"
  | Signature -> "signature"

type point = {
  pt_kind : kind;
  pt_full_ms : float;
  pt_inc_ms : float;
  pt_identical : bool;  (** incremental report == cold report, byte-wise *)
}

type report = {
  es_seed : int;
  es_plugin : string;
  es_projects : int;  (** plugins re-analyzed after every edit *)
  es_files : int;
  es_edits : int;
  es_points : point list;
  es_violations : int;  (** edits whose two reports differed (must be 0) *)
  es_single_full_p50_ms : float;
  es_single_inc_p50_ms : float;
  es_single_speedup : float;  (** full p50 / incremental p50, single-def *)
  es_reparse : int;  (** parser.region.reparse over the storm *)
  es_fallback : int;  (** parser.region.fallback over the storm *)
  es_resume : int;  (** lexer.ckpt.resume over the storm *)
  es_resync_tokens : int;  (** lexer.ckpt.resync_tokens over the storm *)
}

(* ------------------------------------------------------------------ *)
(* Small helpers                                                      *)
(* ------------------------------------------------------------------ *)

(* every start offset of [sub] in [s], ascending *)
let occurrences ~sub s =
  let n = String.length s and m = String.length sub in
  let acc = ref [] in
  if m > 0 then
    for i = n - m downto 0 do
      if String.sub s i m = sub then acc := i :: !acc
    done;
  !acc

let insert_at s pos frag =
  String.sub s 0 pos ^ frag ^ String.sub s pos (String.length s - pos)

(* ------------------------------------------------------------------ *)
(* Edit generators (cumulative: each edit applies to the storm's       *)
(* current source, like a user typing)                                 *)
(* ------------------------------------------------------------------ *)

(* a statement inserted just inside one function's body *)
let edit_single_def rng src =
  match occurrences ~sub:"function " src with
  | [] -> None
  | fns -> (
      let at = Corpus.Prng.pick rng fns in
      match String.index_from_opt src at '{' with
      | None -> None
      | Some brace -> Some (insert_at src (brace + 1) " $e17 = 1; "))

(* one space after a statement terminator: lexically trivial damage *)
let edit_whitespace rng src =
  match occurrences ~sub:";" src with
  | [] -> None
  | semis -> Some (insert_at src (Corpus.Prng.pick rng semis + 1) " ")

(* one update touching two adjacent definitions' bodies: the region
   re-parse must detect the straddle and fall back (counted).  Comments
   would not do — they are insignificant tokens, absorbed by the
   full-identity reuse path — so real statements go in. *)
let edit_cross_def _rng src =
  match occurrences ~sub:"function " src with
  | a :: b :: _ -> (
      match
        (String.index_from_opt src a '{', String.index_from_opt src b '{')
      with
      | Some ab, Some bb when ab < bb ->
          (* later site first so the earlier offset stays valid *)
          Some
            (insert_at
               (insert_at src (bb + 1) " $e17b = 1; ")
               (ab + 1) " $e17a = 1; ")
      | _ -> None)
  | _ -> None

(* a parameter added to one function's signature: the def's summary
   changes shape *)
let edit_signature rng src =
  match occurrences ~sub:"function " src with
  | [] -> None
  | fns -> (
      let at = Corpus.Prng.pick rng fns in
      match String.index_from_opt src at '(' with
      | None -> None
      | Some p ->
          let frag =
            if p + 1 < String.length src && src.[p + 1] = ')' then "$e17x"
            else "$e17x, "
          in
          Some (insert_at src (p + 1) frag))

let generate_edit rng kind src =
  match kind with
  | Single_def -> edit_single_def rng src
  | Whitespace -> edit_whitespace rng src
  | Cross_def -> edit_cross_def rng src
  | Signature -> edit_signature rng src

(* ------------------------------------------------------------------ *)
(* Measurement                                                        *)
(* ------------------------------------------------------------------ *)

let default_seed = 0x5afe17
let default_edits = 48

let analyze project =
  (Phpsafe.tool.Secflow.Tool.analyze_project project
    : Secflow.Report.result)

let render result = Secflow.Report.to_json ~tool:"phpSAFE" result

let measure ?(seed = default_seed) ?(edits = default_edits) ?corpus () :
    report =
  Obs.span "evalkit.editstorm" @@ fun () ->
  let corpus =
    match corpus with Some c -> c | None -> Corpus.generate Corpus.Plan.V2012
  in
  (* the largest plugin: the most summaries and files to retain *)
  let plugin =
    List.fold_left
      (fun best (p : Corpus.Catalog.plugin_output) ->
        if
          Phplang.Project.file_count p.Corpus.Catalog.po_project
          > Phplang.Project.file_count best.Corpus.Catalog.po_project
        then p
        else best)
      (List.hd corpus.Corpus.plugins)
      corpus.Corpus.plugins
  in
  let base = plugin.Corpus.Catalog.po_project in
  let name = base.Phplang.Project.name in
  let others =
    List.filter_map
      (fun (p : Corpus.Catalog.plugin_output) ->
        let pr = p.Corpus.Catalog.po_project in
        if String.equal pr.Phplang.Project.name name then None else Some pr)
      corpus.Corpus.plugins
  in
  let paths =
    List.map (fun (f : Phplang.Project.file) -> f.path) base.files
  in
  let sources : (string, string) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (f : Phplang.Project.file) -> Hashtbl.replace sources f.path f.source)
    base.files;
  let current_project () =
    Phplang.Project.make ~name
      (List.map
         (fun p ->
           { Phplang.Project.path = p; source = Hashtbl.find sources p })
         paths)
  in
  (* the corpus after the storm's edits so far: the edited plugin is
     rebuilt from [sources], every other plugin is untouched *)
  let current_corpus () = current_project () :: others in
  Scratch.with_store "e17-store" @@ fun store_dir ->
  let session = Phplang.Project.Increment.create () in
  Fun.protect
    ~finally:(fun () -> Phplang.Project.Parse_cache.set_enabled true)
  @@ fun () ->
  (* warm-up: populate the store (every plugin) and the incremental
     session (untimed) *)
  List.iter
    (fun p ->
      ignore
        (Phplang.Project.Increment.update session ~path:p
           ~source:(Hashtbl.find sources p)
          : (Phplang.Ast.program, Phplang.Project.parse_error) result))
    paths;
  let analyze_all projects =
    String.concat "\n"
      (List.map (fun p -> render (analyze p)) projects)
  in
  ignore (analyze_all (current_corpus ()) : string);
  let counters =
    [ "parser.region.reparse"; "parser.region.fallback";
      "lexer.ckpt.resume"; "lexer.ckpt.resync_tokens" ]
  in
  let c0 = List.map Obs.counter counters in
  let rng = Corpus.Prng.create seed in
  let kinds = [| Single_def; Whitespace; Cross_def; Signature |] in
  let editable =
    List.filter
      (fun p ->
        occurrences ~sub:"function " (Hashtbl.find sources p) <> [])
      paths
  in
  let points = ref [] in
  for i = 0 to edits - 1 do
    let kind = kinds.(i mod Array.length kinds) in
    let path =
      match editable with
      | [] -> Corpus.Prng.pick rng paths
      | ps -> Corpus.Prng.pick rng ps
    in
    let src = Hashtbl.find sources path in
    match generate_edit rng kind src with
    | None -> ()
    | Some src' ->
        Hashtbl.replace sources path src';
        let projects = current_corpus () in
        (* incremental (warm) pass: statement-reuse re-parse of the edited
           file, then live analysis of the corpus over warm parse caches *)
        let t0 = Obs.Clock.now () in
        ignore
          (Phplang.Project.Increment.update session ~path ~source:src'
            : (Phplang.Ast.program, Phplang.Project.parse_error) result);
        let inc_render = analyze_all projects in
        let inc_ms = (Obs.Clock.now () -. t0) *. 1000. in
        (* full (cold) pass on the same bytes: no store, and the parse
           memo bypassed (not cleared — the incremental pass is modelling
           a long-lived warm process and must keep its entries) *)
        Phplang.Store.set_root None;
        Phplang.Project.Parse_cache.set_enabled false;
        let t0 = Obs.Clock.now () in
        let full_render = analyze_all projects in
        let full_ms = (Obs.Clock.now () -. t0) *. 1000. in
        Phplang.Project.Parse_cache.set_enabled true;
        Phplang.Store.set_root (Some store_dir);
        points :=
          {
            pt_kind = kind;
            pt_full_ms = full_ms;
            pt_inc_ms = inc_ms;
            pt_identical = String.equal inc_render full_render;
          }
          :: !points
  done;
  let points = List.rev !points in
  let deltas = List.map2 (fun k v0 -> Obs.counter k - v0) counters c0 in
  let d i = List.nth deltas i in
  let single = List.filter (fun p -> p.pt_kind = Single_def) points in
  let p50 field = Obs.percentile (List.map field single) 50. in
  let full_p50 = p50 (fun p -> p.pt_full_ms) in
  let inc_p50 = p50 (fun p -> p.pt_inc_ms) in
  {
    es_seed = seed;
    es_plugin = name;
    es_projects = 1 + List.length others;
    es_files = List.length paths;
    es_edits = List.length points;
    es_points = points;
    es_violations =
      List.length (List.filter (fun p -> not p.pt_identical) points);
    es_single_full_p50_ms = full_p50;
    es_single_inc_p50_ms = inc_p50;
    es_single_speedup = (if inc_p50 > 0. then full_p50 /. inc_p50 else nan);
    es_reparse = d 0;
    es_fallback = d 1;
    es_resume = d 2;
    es_resync_tokens = d 3;
  }

(* ------------------------------------------------------------------ *)
(* Report                                                             *)
(* ------------------------------------------------------------------ *)

let print ppf (r : report) =
  Format.fprintf ppf
    "@.== E17: edit-storm incremental re-analysis (seed %#x, edits in %s/%d \
     files, %d plugins re-checked per edit) ==@."
    r.es_seed r.es_plugin r.es_files r.es_projects;
  Format.fprintf ppf "%-11s %6s %12s %12s %9s@." "edit kind" "edits"
    "full p50" "incr p50" "speedup";
  List.iter
    (fun kind ->
      let ps = List.filter (fun p -> p.pt_kind = kind) r.es_points in
      if ps <> [] then begin
        let p50 field = Obs.percentile (List.map field ps) 50. in
        let f = p50 (fun p -> p.pt_full_ms) in
        let i = p50 (fun p -> p.pt_inc_ms) in
        Format.fprintf ppf "%-11s %6d %9.2f ms %9.2f ms %8.1fx@."
          (kind_name kind) (List.length ps) f i
          (if i > 0. then f /. i else nan)
      end)
    [ Single_def; Whitespace; Cross_def; Signature ];
  Format.fprintf ppf
    "report identity: %d/%d byte-identical (%d violation(s))@."
    (r.es_edits - r.es_violations)
    r.es_edits r.es_violations;
  Format.fprintf ppf
    "pipeline: %d region re-parse(s), %d fallback(s), %d checkpoint \
     resume(s), %d token(s) re-lexed@."
    r.es_reparse r.es_fallback r.es_resume r.es_resync_tokens;
  Format.fprintf ppf
    "single-def edits: %.2f ms full vs %.2f ms incremental (%.1fx; goal \
     >= 5x)@."
    r.es_single_full_p50_ms r.es_single_inc_p50_ms r.es_single_speedup
