(** Edit-delta scanning over a long-lived incremental session — see
    watch.mli. *)

type delta = {
  d_initial : bool;
  d_changed : string list;
  d_deleted : string list;
  d_added : Secflow.Report.finding list;
  d_removed : Secflow.Report.finding list;
  d_total : int;
  d_exit : int;
  d_ms : float;
  d_report : string;
}

type session = {
  w_opts : Scan.opts;
  w_inc : Phplang.Project.Increment.session;
      (* also the record of each path's last seen source *)
  mutable w_prev : Secflow.Report.finding list option;
  w_lock : Mutex.t;
}

let create opts =
  {
    w_opts = opts;
    w_inc = Phplang.Project.Increment.create ();
    w_prev = None;
    w_lock = Mutex.create ();
  }

let incremental_counters () =
  List.filter
    (fun (name, _) ->
      List.exists
        (fun prefix -> String.starts_with ~prefix name)
        [ "lexer.ckpt."; "parser.region." ])
    (Obs.counters ())

let locked s f =
  Mutex.lock s.w_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.w_lock) f

(* Is [f] exactly what the parse session last saw? *)
let unchanged s (f : Phplang.Project.file) =
  match Phplang.Project.Increment.source s.w_inc f.path with
  | Some old -> String.equal old f.source
  | None -> false

(* Under the session lock: bring the incremental parse session in line
   with [project], returning the changed and deleted paths (each sorted).
   Each changed file goes through {!Phplang.Project.Increment.update},
   which re-parses sub-file-incrementally and seeds the process parse
   memo — the analysis that follows hits it transparently. *)
let refresh_locked s (project : Phplang.Project.t) =
  let changed = ref [] in
  List.iter
    (fun (f : Phplang.Project.file) ->
      if not (unchanged s f) then begin
        changed := f.path :: !changed;
        ignore
          (Phplang.Project.Increment.update s.w_inc ~path:f.path
             ~source:f.source
            : (Phplang.Ast.program, Phplang.Project.parse_error) result)
      end)
    project.files;
  let live = Hashtbl.create 64 in
  List.iter
    (fun (f : Phplang.Project.file) -> Hashtbl.replace live f.path ())
    project.files;
  let deleted =
    List.filter
      (fun path -> not (Hashtbl.mem live path))
      (Phplang.Project.Increment.paths s.w_inc)
  in
  List.iter (Phplang.Project.Increment.forget s.w_inc) deleted;
  (List.sort String.compare !changed, List.sort String.compare deleted)

let refresh_sources s project = locked s (fun () -> refresh_locked s project)

let finding_key (f : Secflow.Report.finding) =
  Format.asprintf "%a" Secflow.Report.pp_finding f

(* Stable-order finding diff: [added] keeps the new report's order,
   [removed] the old one's.  Keys carry multiplicity so two identical
   findings minus one of them still shows a removal. *)
let diff_findings ~old ~fresh =
  let counts = Hashtbl.create 64 in
  List.iter
    (fun f ->
      let k = finding_key f in
      Hashtbl.replace counts k
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
    old;
  (* consume one unmatched copy of [f], if any is left *)
  let take f =
    let k = finding_key f in
    match Hashtbl.find_opt counts k with
    | Some n when n > 0 ->
        Hashtbl.replace counts k (n - 1);
        true
    | _ -> false
  in
  let added = List.filter (fun f -> not (take f)) fresh in
  let removed = List.filter take old in
  (added, removed)

let scan s project =
  locked s @@ fun () ->
  let changed, deleted = refresh_locked s project in
  let t0 = Obs.Clock.now () in
  let tool, result = Scan.run s.w_opts project in
  let ms = (Obs.Clock.now () -. t0) *. 1000. in
  let fresh = result.Secflow.Report.findings in
  let initial = s.w_prev = None in
  let old = Option.value ~default:[] s.w_prev in
  let added, removed = diff_findings ~old ~fresh in
  s.w_prev <- Some fresh;
  {
    d_initial = initial;
    d_changed = changed;
    d_deleted = deleted;
    d_added = added;
    d_removed = removed;
    d_total = List.length fresh;
    d_exit = Scan.exit_code result;
    d_ms = ms;
    d_report = Secflow.Report.to_json ~tool result;
  }

let scan_if_changed s project =
  let quiescent =
    locked s @@ fun () ->
    s.w_prev <> None
    && List.length project.Phplang.Project.files
       = List.length (Phplang.Project.Increment.paths s.w_inc)
    && List.for_all (unchanged s) project.files
  in
  if quiescent then None else Some (scan s project)

let loop s ~load ~poll_ms ?max_events ~on_event () =
  let events = ref 0 in
  let budget_left () =
    match max_events with Some n -> !events < n | None -> true
  in
  let deliver d =
    incr events;
    on_event d
  in
  if budget_left () then deliver (scan s (load ()));
  while budget_left () do
    Unix.sleepf (float_of_int (max 1 poll_ms) /. 1000.);
    match scan_if_changed s (load ()) with
    | Some d -> deliver d
    | None -> ()
  done
