(** E12 — incremental cross-version re-analysis (beyond the paper).

    The paper re-ran every tool from scratch on both plugin collections.
    With the persistent content-addressed cache ({!Phplang.Store}) a
    re-analysis only pays again for what changed: RIPS and Pixy replay the
    per-file results of unchanged files ({!Secflow.Cache}), while phpSAFE,
    whose walk reads across files, re-analyzes everything live from stored
    parses.  This experiment quantifies both halves of that claim, per
    tool:

    - {e cold vs warm}: the V.2014 corpus analyzed against an empty cache
      directory, then again against the directory the first run populated.
      The in-memory parse memo is cleared before every V.2014 pass, so
      each pass pays its front end as a fresh process would;
    - {e cross-version reuse}: a fresh directory is populated by analyzing
      the V.2012 corpus, then V.2014 is analyzed against it; the hit delta
      of the tool's replay namespace counts the 2014 files whose stored
      result (RIPS, Pixy) or parse (phpSAFE) was reused from their
      unchanged 2012 counterparts.

    Everything runs sequentially in temporary cache directories (removed
    afterwards); the store root active before the experiment is restored. *)

type tool_point = {
  ip_tool : string;
  ip_cold_s : float;  (** V.2014, empty cache directory *)
  ip_warm_s : float;  (** V.2014 again, cache populated by the cold run *)
  ip_warm_hits : int;  (** replay-namespace hits during the warm run *)
  ip_reused : int;  (** V.2014 files replayed from a V.2012-populated cache *)
}

type report = {
  ir_files_2014 : int;  (** files in the V.2014 corpus *)
  ir_points : tool_point list;
  ir_cold_total : float;
  ir_warm_total : float;
}

(* ------------------------------------------------------------------ *)
(* Measurement                                                        *)
(* ------------------------------------------------------------------ *)

(* The namespace a tool's warm run replays from: phpSAFE caches only
   parses, RIPS and Pixy cache per-file results. *)
let replay_ns (tool : Secflow.Tool.t) =
  if String.equal tool.Secflow.Tool.name Phpsafe.tool.Secflow.Tool.name then
    "parse"
  else "result"

let hits ns =
  match
    List.find_opt
      (fun (s : Phplang.Store.stats) -> String.equal s.Phplang.Store.ns ns)
      (Phplang.Store.counters ())
  with
  | Some s -> s.Phplang.Store.hits
  | None -> 0

(* One V.2014-style pass of [tool] with a cold parse memo, so the store is
   the only thing carried over from earlier passes. *)
let run_tool (tool : Secflow.Tool.t) (corpus : Corpus.t) =
  Phplang.Project.Parse_cache.clear Phplang.Project.Parse_cache.shared;
  List.iter
    (fun (p : Corpus.Catalog.plugin_output) ->
      ignore
        (tool.Secflow.Tool.analyze_project p.Corpus.Catalog.po_project
          : Secflow.Report.result))
    corpus.Corpus.plugins

let timed f =
  let t0 = Obs.Clock.now () in
  f ();
  Obs.Clock.now () -. t0

let measure ?(tools = Runner.default_tools ()) ?corpus12 ?corpus14 () : report =
  Obs.span "evalkit.incremental" @@ fun () ->
  let corpus12 =
    match corpus12 with
    | Some c -> c
    | None -> Corpus.generate Corpus.Plan.V2012
  in
  let corpus14 =
    match corpus14 with
    | Some c -> c
    | None -> Corpus.generate Corpus.Plan.V2014
  in
  let files14, _ = Corpus.stats corpus14 in
  (* cold and warm V.2014 passes against one fresh store *)
  let cold, warm =
    Scratch.with_store "e12-cold" @@ fun _ ->
    let cold =
      List.map (fun t -> timed (fun () -> run_tool t corpus14)) tools
    in
    let warm =
      List.map
        (fun t ->
          let h0 = hits (replay_ns t) in
          let s = timed (fun () -> run_tool t corpus14) in
          (s, hits (replay_ns t) - h0))
        tools
    in
    (cold, warm)
  in
  (* cross-version pass: populate with V.2012, then analyze V.2014 *)
  let reused =
    Scratch.with_store "e12-cross" @@ fun _ ->
    List.iter (fun t -> run_tool t corpus12) tools;
    List.map
      (fun t ->
        let h0 = hits (replay_ns t) in
        run_tool t corpus14;
        hits (replay_ns t) - h0)
      tools
  in
  let points =
    List.map2
      (fun ((tool : Secflow.Tool.t), ip_cold_s) ((ip_warm_s, ip_warm_hits), ip_reused) ->
        { ip_tool = tool.Secflow.Tool.name; ip_cold_s; ip_warm_s;
          ip_warm_hits; ip_reused })
      (List.combine tools cold)
      (List.combine warm reused)
  in
  {
    ir_files_2014 = files14;
    ir_points = points;
    ir_cold_total = List.fold_left ( +. ) 0. cold;
    ir_warm_total = List.fold_left (fun acc (s, _) -> acc +. s) 0. warm;
  }

(* ------------------------------------------------------------------ *)
(* Report                                                             *)
(* ------------------------------------------------------------------ *)

let print ppf (r : report) =
  Format.fprintf ppf
    "@.== E12: incremental re-analysis (persistent result cache) ==@.";
  Format.fprintf ppf "%-8s %10s %10s %8s %13s %20s@." "tool" "cold 2014"
    "warm 2014" "speedup" "warm replays" "2012->2014 reuse";
  List.iter
    (fun p ->
      Format.fprintf ppf "%-8s %9.2fs %9.2fs %7.1fx %9d/%-3d %11d/%-3d (%.1f%%)@."
        p.ip_tool p.ip_cold_s p.ip_warm_s
        (if p.ip_warm_s > 0. then p.ip_cold_s /. p.ip_warm_s else nan)
        p.ip_warm_hits r.ir_files_2014 p.ip_reused r.ir_files_2014
        (100. *. float_of_int p.ip_reused /. float_of_int r.ir_files_2014))
    r.ir_points;
  Format.fprintf ppf
    "total     %8.2fs %9.2fs %7.1fx   (cache dirs are temporary; removed)@."
    r.ir_cold_total r.ir_warm_total
    (if r.ir_warm_total > 0. then r.ir_cold_total /. r.ir_warm_total else nan)
