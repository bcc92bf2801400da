(** The batch engine behind [batch-cold] and [deep-warm]: one op is one
    (tool, plugin) analysis; a pass runs one tool over every plugin, in a
    seeded order, fanned out with [Sched.map]; a round is one pass per
    tool.  The untraced run reports end-to-end figures; the traced run
    re-runs the same ops at pool size 1 and splits their time by layer
    from outside the library. *)

open Harness

type tool = {
  name : string;  (** layer prefix: "phpsafe", "rips" or "pixy" *)
  analyze : Phplang.Project.t -> Secflow.Report.result;
  expect : (string, Oracle.expectation) Hashtbl.t;
}

type spec = {
  cold : bool;
      (** clear the parse memo before every pass, so each op pays its own
          lexing and parsing, and the traced run times both layers; a warm
          spec's traced run times the analysis and builds the CFG of every
          body instead *)
  tools : tool list;
  plugins : Corpus.Catalog.plugin_output list;
  kloc : float;  (** source kLOC of one pass *)
  pool_size : int;
}

let record tally (t : tool) (p : Corpus.Catalog.plugin_output) result =
  let ex = Hashtbl.find t.expect p.Corpus.Catalog.po_name in
  count tally (Oracle.check ex result)

let memo = Phplang.Project.Parse_cache.shared

(* Parse-memo lookups of the measured passes, as hits and misses. *)
type memo_traffic = { mutable hits : int; mutable misses : int }

let no_traffic () = { hits = 0; misses = 0 }

(* Runs one pass: a cold spec starts it from an empty memo. *)
let within_pass spec traffic f =
  if spec.cold then Phplang.Project.Parse_cache.clear memo;
  let h0 = Phplang.Project.Parse_cache.hits memo
  and m0 = Phplang.Project.Parse_cache.misses memo in
  let r = f () in
  traffic.hits <- traffic.hits + Phplang.Project.Parse_cache.hits memo - h0;
  traffic.misses <-
    traffic.misses + Phplang.Project.Parse_cache.misses memo - m0;
  r

(** One untraced pass: wall seconds, per-op latencies (ms) and the summed
    per-op seconds. *)
let pass ~pool ~tally ~traffic rng spec (t : tool) =
  let order = shuffle rng spec.plugins in
  let wall, out =
    within_pass spec traffic (fun () ->
        let t0 = now () in
        let out =
          Sched.map ~chunk:1 ~pool
            (fun (p : Corpus.Catalog.plugin_output) ->
              let s = now () in
              let r = t.analyze p.Corpus.Catalog.po_project in
              (p, r, now () -. s))
            order
        in
        (now () -. t0, out))
  in
  List.iter (fun (p, r, _) -> record tally t p r) out;
  (wall, List.map (fun (_, _, s) -> s *. 1000.) out,
   List.fold_left (fun acc (_, _, s) -> acc +. s) 0. out)

(** One round (a pass per tool): (wall, latencies, summed op seconds). *)
let round ~pool ~tally ~traffic rng spec =
  List.fold_left
    (fun (w, ls, s) t ->
      let w', ls', s' = pass ~pool ~tally ~traffic rng spec t in
      (w +. w', List.rev_append ls' ls, s +. s'))
    (0., [], 0.) spec.tools

let ops_per_round spec = List.length spec.tools * List.length spec.plugins

let run_untraced spec (p : params) ~setup_s =
  let pool = Sched.create ~size:spec.pool_size () in
  let tally = tally () and traffic = no_traffic () in
  let rng = Corpus.Prng.create p.seed in
  reset_counters ();
  let rounds =
    rounds_for p.seconds (fun () -> round ~pool ~tally ~traffic rng spec)
  in
  let n_ops = ops_per_round spec in
  let n_tools = float_of_int (List.length spec.tools) in
  let windows =
    List.map
      (fun rs ->
        List.fold_left
          (fun w (wall, ls, _) ->
            { w_ops = w.w_ops + n_ops;
              w_secs = w.w_secs +. wall;
              w_kloc = w.w_kloc +. (n_tools *. spec.kloc);
              w_lat_ms = List.rev_append ls w.w_lat_ms })
          { w_ops = 0; w_secs = 0.; w_kloc = 0.; w_lat_ms = [] }
          rs)
      (windows_of ~ops:(fun _ -> n_ops) rounds)
  in
  result_of tally (end_to_end ~setup_s windows)

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

(* Function bodies of a program, top level first: what a CFG is built
   over. *)
let bodies (prog : Phplang.Ast.program) =
  let rec go acc (stmts : Phplang.Ast.stmt list) =
    List.fold_left
      (fun acc (st : Phplang.Ast.stmt) ->
        match st.Phplang.Ast.s with
        | Phplang.Ast.FuncDef f ->
            go (f.Phplang.Ast.f_body :: acc) f.Phplang.Ast.f_body
        | Phplang.Ast.ClassDef c ->
            List.fold_left
              (fun acc (m : Phplang.Ast.method_def) ->
                let b = m.Phplang.Ast.m_func.Phplang.Ast.f_body in
                go (b :: acc) b)
              acc c.Phplang.Ast.c_methods
        | _ -> acc)
      acc stmts
  in
  List.rev (go [ prog ] prog)

type layers = {
  lex : layer;
  parse : layer;
  cfg : layer;
  analyze : (string * layer) list;
  mutable lex_bytes : int;
  mutable tokens : int;
  mutable cfg_nodes : int;
}

(* The front end, split in two timed calls; the result is published into
   the parse memo under [Project.parse_file]'s key, so the analysis that
   follows hits it exactly as it would have hit its own parse. *)
let front_end ly (f : Phplang.Project.file) =
  match timed ly.lex (fun () -> Phplang.Lexer.tokenize_significant f.source) with
  | exception Phplang.Lexer.Error _ -> ()
  | tokens -> (
      ly.lex_bytes <- ly.lex_bytes + String.length f.source;
      match
        timed ly.parse (fun () -> Phplang.Parser.parse_tokens ~file:f.path tokens)
      with
      | exception _ -> ()
      | prog ->
          ly.tokens <- ly.tokens + List.length tokens;
          Phplang.Project.Parse_cache.seed memo
            (f.path, Phplang.Digest.string f.source)
            (Ok prog))

let cfg_of_project ly (project : Phplang.Project.t) =
  List.iter
    (fun f ->
      match Phplang.Project.parse_file f with
      | Error _ -> ()
      | Ok prog ->
          List.iter
            (fun body ->
              let g = timed ly.cfg (fun () -> Dataflow.Cfg.build body) in
              ly.cfg_nodes <- ly.cfg_nodes + Dataflow.Cfg.size g)
            (bodies prog))
    project.Phplang.Project.files

(* The round's wall covers only the calls the untraced reference round
   also makes; the benchmark's own CFG builds run after it. *)
let traced_round ~tally ly rng spec =
  let t0 = now () in
  List.iter
    (fun (t : tool) ->
      let l = List.assoc t.name ly.analyze in
      let order = shuffle rng spec.plugins in
      within_pass spec (no_traffic ()) (fun () ->
          List.iter
            (fun (p : Corpus.Catalog.plugin_output) ->
              let project = p.Corpus.Catalog.po_project in
              if spec.cold then List.iter (front_end ly) project.files;
              let r = timed l (fun () -> t.analyze project) in
              record tally t p r)
            order))
    spec.tools;
  let wall = now () -. t0 in
  if not spec.cold then
    List.iter
      (fun (p : Corpus.Catalog.plugin_output) ->
        cfg_of_project ly p.Corpus.Catalog.po_project)
      spec.plugins;
  wall

let run_traced spec (p : params) ~gen_s =
  let tally = tally () and traffic = no_traffic () in
  let rng = Corpus.Prng.create p.seed in
  let t_end = now () +. p.seconds in
  reset_counters ();
  (* scheduler efficiency at the workload's own pool size *)
  let pool = Sched.create ~size:spec.pool_size () in
  let sched_wall, _, sched_items =
    round ~pool ~tally ~traffic:(no_traffic ()) rng spec
  in
  let ly =
    { lex = layer (); parse = layer (); cfg = layer ();
      analyze = List.map (fun (t : tool) -> (t.name, layer ())) spec.tools;
      lex_bytes = 0; tokens = 0; cfg_nodes = 0 }
  in
  (* traced rounds alternate with untraced ones at the same pool size 1,
     the base of the trace overhead and of the parse-memo hit ratio *)
  let pool1 = Sched.create ~size:1 () in
  let ref_walls = ref [] in
  let walls =
    rounds_for (max 0. (t_end -. now ())) (fun () ->
        let w, _, _ = round ~pool:pool1 ~tally ~traffic rng spec in
        ref_walls := w :: !ref_walls;
        traced_round ~tally ly rng spec)
  in
  let n = float_of_int (List.length walls) in
  let traced_wall = List.fold_left ( +. ) 0. walls in
  let analyze_s = List.fold_left (fun acc (_, l) -> acc +. l.l_s) 0. ly.analyze in
  let attributed = ly.lex.l_s +. ly.parse.l_s +. analyze_s in
  let per_round x = x /. n in
  let analyzer_metrics =
    List.concat_map
      (fun (name, l) ->
        [ (name ^ ".analyze.self_s", per_round l.l_s);
          (name ^ ".analyze.alloc_mw", mw (per_round l.l_minor));
          (name ^ ".analyze.major_mw", mw (per_round l.l_major)) ])
      ly.analyze
  in
  let measured =
    [ ("phplang.lexer.self_s", per_round ly.lex.l_s);
      ("phplang.lexer.mb_per_s",
       ratio (float_of_int ly.lex_bytes /. 1e6) ly.lex.l_s);
      ("phplang.lexer.alloc_mw", mw (per_round ly.lex.l_minor));
      ("phplang.lexer.major_mw", mw (per_round ly.lex.l_major));
      ("phplang.parser.self_s", per_round ly.parse.l_s);
      ("phplang.parser.ktokens_per_s",
       ratio (float_of_int ly.tokens /. 1e3) ly.parse.l_s);
      ("phplang.parser.alloc_mw", mw (per_round ly.parse.l_minor));
      ("phplang.parser.major_mw", mw (per_round ly.parse.l_major));
      ("dataflow.cfg.build_s", per_round ly.cfg.l_s);
      ("dataflow.cfg.nodes", per_round (float_of_int ly.cfg_nodes));
      ("dataflow.cfg.alloc_mw", mw (per_round ly.cfg.l_minor));
      ("dataflow.cfg.major_mw", mw (per_round ly.cfg.l_major));
      ("phplang.parse_cache.hit_ratio",
       ratio (float_of_int traffic.hits)
         (float_of_int (traffic.hits + traffic.misses)));
      ("sched.efficiency",
       ratio sched_items (float_of_int spec.pool_size *. sched_wall));
      ("corpus.generate_s", gen_s);
      ("obs.trace_overhead_ratio",
       (* the first pair runs while the heap still grows: skip it *)
       let steady = function _ :: (_ :: _ as rest) -> rest | l -> l in
       ratio (median (steady walls)) (median (steady (List.rev !ref_walls)))
       -. 1.);
      ("unattributed_ratio", 1. -. ratio attributed traced_wall);
      ("error_ratio",
       ratio (float_of_int tally.failed) (float_of_int tally.attempted)) ]
    @ analyzer_metrics @ store_metrics ()
  in
  result_of tally (per_layer measured)
