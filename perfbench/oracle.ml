(** Ground-truth oracle: which seeds each analyzer must report on each
    plugin, derived from the corpus labels alone — never from a run of an
    analyzer.

    A seed's label gives its pattern; the generator's plan gives the file
    placement the pattern was put in.  The corpus calibration (see
    [Corpus.Plan]) makes detectability a function of exactly those two:
    whether a tool can read the file at all (Pixy fails OOP files, phpSAFE
    fails the over-budget deep-include file) and whether it models the
    pattern's flow.  Every operation's findings are classified with
    [Evalkit.Matching.classify] and must hit exactly the expected seeds
    with no stray detection.  The per-tool totals of the expectation are
    checked against the Table I counts in EXPERIMENTS.md. *)

open Secflow
module SS = Set.Make (String)

type tool =
  | Phpsafe
  | Rips
  | Pixy
  | Phpsafe_deep
      (** phpSAFE with [flow_sensitive] and [infer_contexts], two-phase *)

let tool_name = function
  | Phpsafe -> "phpSAFE"
  | Rips -> "RIPS"
  | Pixy -> "Pixy"
  | Phpsafe_deep -> "phpSAFE-flow-contexts"

(* Which file placements a tool can analyze. *)
let reads tool (placement : Corpus.Plan.placement) =
  match (tool, placement) with
  | Rips, _ -> true
  | (Phpsafe | Phpsafe_deep), (Clean_file | Oop_file) -> true
  | Pixy, Clean_file -> true
  | (Phpsafe | Phpsafe_deep | Pixy), _ -> false

let phpsafe_reals =
  [ "direct-echo"; "db-proc-echo"; "file-proc-echo"; "interproc-echo";
    "uncalled-fn-echo"; "wpdb-oop-xss"; "wpdb-sqli"; "method-echo";
    "method-db-echo"; "method-file-echo"; "method-prop-flow" ]

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

(* Patterns a tool reports when it reads the file.  [sink_line] is the
   seed's sink line in the generated source: the one input besides the
   labels, needed because the WordPress-sanitizer trap draws its sanitizer
   at random and only [esc_js] is inadequate for the HTML body once sink
   contexts are inferred. *)
let reports tool ~pattern ~(sink_line : string Lazy.t) =
  match tool with
  | Phpsafe ->
      List.mem pattern
        ("trap-guard" :: "trap-revert" :: "trap-sqli-guard-wpdb"
       :: "trap-sqli-guard-proc" :: phpsafe_reals)
  | Phpsafe_deep ->
      (* contexts clear the stripslashes-revert trap *)
      List.mem pattern
        ("trap-guard" :: "trap-sqli-guard-wpdb" :: "trap-sqli-guard-proc"
       :: phpsafe_reals)
      || String.equal pattern "trap-wp-sanitizer"
         && contains (Lazy.force sink_line) "esc_js("
  | Rips ->
      (* no class bodies, no $wpdb model, no register_globals *)
      List.mem pattern
        [ "direct-echo"; "db-proc-echo"; "file-proc-echo"; "interproc-echo";
          "uncalled-fn-echo"; "trap-guard"; "trap-revert"; "trap-wp-sanitizer";
          "trap-sqli-guard-proc" ]
  | Pixy ->
      List.mem pattern
        [ "direct-echo"; "interproc-echo"; "register-globals-echo";
          "trap-guard"; "trap-uninit-include"; "trap-wp-sanitizer" ]

(** One plugin's expectation for one tool. *)
type expectation = {
  ex_plugin : string;
  ex_seeds : Corpus.Gt.seed list;  (** every seed of the plugin *)
  ex_ids : SS.t;  (** seed ids the tool must report, and nothing else *)
}

let line_at source line =
  match List.nth_opt (String.split_on_char '\n' source) (line - 1) with
  | Some l -> l
  | None -> ""

(** Per-plugin expectations of [tool] over [corpus], keyed by plugin
    name. *)
let expect tool (corpus : Corpus.t) : (string, expectation) Hashtbl.t =
  let placement = Hashtbl.create 1024 in
  List.iter
    (fun (i : Corpus.Plan.inst) ->
      Hashtbl.replace placement i.Corpus.Plan.in_id i.Corpus.Plan.in_placement)
    (Corpus.Plan.instances corpus.Corpus.version);
  let table = Hashtbl.create 64 in
  List.iter
    (fun (p : Corpus.Catalog.plugin_output) ->
      let project = p.Corpus.Catalog.po_project in
      let flagged (s : Corpus.Gt.seed) =
        let sink_line =
          lazy
            (match Phplang.Project.find project s.Corpus.Gt.file with
            | Some f -> line_at f.Phplang.Project.source s.Corpus.Gt.line
            | None -> "")
        in
        match Hashtbl.find_opt placement s.Corpus.Gt.seed_id with
        | None -> false
        | Some pl ->
            reads tool pl
            && reports tool ~pattern:s.Corpus.Gt.pattern ~sink_line
      in
      let ids =
        List.fold_left
          (fun acc s -> if flagged s then SS.add s.Corpus.Gt.seed_id acc else acc)
          SS.empty p.Corpus.Catalog.po_seeds
      in
      Hashtbl.replace table p.Corpus.Catalog.po_name
        { ex_plugin = p.Corpus.Catalog.po_name;
          ex_seeds = p.Corpus.Catalog.po_seeds;
          ex_ids = ids })
    corpus.Corpus.plugins;
  table

(* ------------------------------------------------------------------ *)
(* Table I                                                             *)
(* ------------------------------------------------------------------ *)

(** (XSS TP, XSS FP, SQLi TP, SQLi FP) — the measured Table I values of
    EXPERIMENTS.md, E1. *)
type counts = int * int * int * int

let table_i tool (version : Corpus.Plan.version) : counts option =
  match (tool, version) with
  | Phpsafe, V2012 -> Some (307, 63, 8, 2)
  | Rips, V2012 -> Some (134, 79, 0, 0)
  | Pixy, V2012 -> Some (50, 187, 0, 0)
  | Phpsafe, V2014 -> Some (374, 57, 9, 5)
  | Rips, V2014 -> Some (288, 79, 0, 1)
  | Pixy, V2014 -> Some (20, 208, 0, 0)
  | Phpsafe_deep, _ -> None

let counts_of_seeds (seeds : Corpus.Gt.seed list) : counts =
  List.fold_left
    (fun (xt, xf, st, sf) s ->
      let real = Corpus.Gt.is_real s in
      match Corpus.Gt.kind_of s with
      | Vuln.Xss -> if real then (xt + 1, xf, st, sf) else (xt, xf + 1, st, sf)
      | Vuln.Sqli -> if real then (xt, xf, st + 1, sf) else (xt, xf, st, sf + 1)
      | _ -> (xt, xf, st, sf))
    (0, 0, 0, 0) seeds

(** Totals of an expectation table. *)
let expected_counts table : counts =
  Hashtbl.fold
    (fun _ ex (xt, xf, st, sf) ->
      let a, b, c, d =
        counts_of_seeds
          (List.filter
             (fun s -> SS.mem s.Corpus.Gt.seed_id ex.ex_ids)
             ex.ex_seeds)
      in
      (xt + a, xf + b, st + c, sf + d))
    table (0, 0, 0, 0)

(** [true] when the label-derived expectation reproduces Table I (or the
    tool has no Table I row). *)
let agrees_with_table_i tool version table =
  match table_i tool version with
  | None -> true
  | Some c -> expected_counts table = c

(* ------------------------------------------------------------------ *)
(* Checking one operation                                              *)
(* ------------------------------------------------------------------ *)

(** [check ex result]: the op's findings hit exactly the expected seeds
    and nothing else. *)
let check (ex : expectation) (result : Report.result) =
  let cl =
    Evalkit.Matching.classify ~seeds:ex.ex_seeds
      { Evalkit.Matching.to_tool = "op"; to_results = [ (ex.ex_plugin, result) ] }
  in
  let ids =
    List.fold_left
      (fun acc s -> SS.add s.Corpus.Gt.seed_id acc)
      SS.empty
      (cl.Evalkit.Matching.cl_tp @ cl.Evalkit.Matching.cl_trap_fp)
  in
  cl.Evalkit.Matching.cl_stray_fp = [] && SS.equal ids ex.ex_ids

let kind_of_report_name s =
  List.find_opt (fun k -> String.equal (Vuln.kind_to_string k) s) Vuln.all_kinds

(** The findings of a [phpsafe-report/1] document, as a result carrying
    only what matching reads (kind, sink file and line); [None] when the
    document is not a well-formed report. *)
let result_of_report_json json : Report.result option =
  let ( let* ) = Option.bind in
  let finding j =
    let* kind = Option.bind (Json.member "kind" j) Json.to_string_opt in
    let* kind = kind_of_report_name kind in
    let* loc = Json.member "location" j in
    let* file = Option.bind (Json.member "file" loc) Json.to_string_opt in
    let* line = Option.bind (Json.member "line" loc) Json.to_int_opt in
    let pos = { Phplang.Ast.file; line } in
    Some
      { Report.kind;
        sink_pos = pos;
        sink = "";
        variable = "";
        source = Vuln.Unknown_source;
        source_pos = pos;
        trace = [];
        context = None;
        sanitizers_applied = [];
        trace_truncated = false }
  in
  match Json.parse json with
  | Error _ -> None
  | Ok doc ->
      let* items = Option.bind (Json.member "findings" doc) Json.to_list_opt in
      let findings = List.filter_map finding items in
      if List.length findings <> List.length items then None
      else Some { Report.empty_result with Report.findings }

(** {!check} on a rendered report; a malformed report fails. *)
let check_json ex json =
  match result_of_report_json json with
  | Some r -> check ex r
  | None -> false
