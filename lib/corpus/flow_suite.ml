(** Flow-sensitivity evaluation suite (experiment E13).

    A small dedicated corpus — separate from the calibrated 35-plugin
    2012/2014 plans, whose instance counts must not change — exercising the
    flow-sensitive body walk ([--flow], DESIGN.md):

    - {e real} flow-carried flaws the flat walk misses by last-write-wins:
      taint assigned in one branch but overwritten clean in the other, and
      loop-carried taint reaching a sink only through the back edge;
    - {e foils} the flat walk flags: a sanitized value re-assigned tainted
      only inside a branch that exits, so the sink never sees the taint;
    - straight-line [??]-defaulted sinks both walks must keep, pinning the
      null-coalescing taint join.

    Each plugin additionally ships one {e raw} (non-printed) file combining
    a heredoc SQL sink, a [<?=] echo sink and [??] defaults — the printer
    never emits those surface forms, so the raw file is what keeps the
    lexer paths exercised end-to-end.

    Every seed carries exact ground truth via the usual sink markers, so
    the E13 delta (new true positives, removed false positives) is computed
    against labels, not expectations. *)

let get = Secflow.Vuln.Get
let post = Secflow.Vuln.Post

let plugins : Suite.plugin list =
  [ ( "gallery-flow",
      [ (Plan.P_flow_branch, get); (Plan.P_flow_branch, post);
        (Plan.P_flow_loop, get);
        (Plan.P_flow_coalesce, get); (Plan.P_flow_coalesce, post);
        (Plan.T_flow_exit, get); (Plan.T_flow_exit, get) ] );
    ( "event-list-flow",
      [ (Plan.P_flow_branch, get);
        (Plan.P_flow_loop, get); (Plan.P_flow_loop, post);
        (Plan.P_flow_coalesce, get);
        (Plan.T_flow_exit, get); (Plan.T_flow_exit, get);
        (Plan.T_flow_exit, get) ] ) ]

(* ------------------------------------------------------------------ *)
(* Raw front-end file: heredoc + <?= + ??                              *)
(* ------------------------------------------------------------------ *)

let raw_path = "views/raw-widget.php"

(** The heredoc body interpolates the [??]-defaulted POST value into the
    query; the marker rides in a literal concatenated on the sink line.
    The [<?=] sink carries its marker in the inline HTML opening the same
    line.  Both seeds are straight-line, so flat and flow must keep them. *)
let raw_source ~id_sql ~id_echo =
  String.concat "\n"
    [ "<?php";
      Printf.sprintf "$title_%s = $_POST['title'] ?? 'untitled';" id_sql;
      Printf.sprintf "$sql_%s = <<<SQL" id_sql;
      Printf.sprintf "UPDATE notes SET title = '$title_%s' WHERE id = 1" id_sql;
      "SQL;";
      Printf.sprintf "mysql_query($sql_%s . \" -- %s\");" id_sql
        (Gt.marker id_sql);
      "?>";
      Printf.sprintf "<h2 class=\"%s\"><?= $_GET['caption'] ?? 'photo' ?></h2>"
        (Gt.marker id_echo);
      "" ]

(** Append the raw file to a built plugin and seed its two sinks. *)
let with_raw_file k ({ Builder.project; seeds } : Builder.built) =
  let id_sql = Printf.sprintf "fh%02d" (k + 1)
  and id_echo = Printf.sprintf "fe%02d" (k + 1) in
  let source = raw_source ~id_sql ~id_echo in
  let seed id pattern kind vector =
    { Gt.seed_id = id; pattern;
      label = Gt.Real_vuln { kind; vector; oop_wordpress = false };
      plugin = project.Phplang.Project.name; file = raw_path;
      line = Gt.line_of_needle ~file:raw_path ~needle:(Gt.marker id) source }
  in
  let raw_seeds =
    [ seed id_sql "flow-heredoc-sqli" Secflow.Vuln.Sqli Secflow.Vuln.Post;
      seed id_echo "flow-short-echo-xss" Secflow.Vuln.Xss Secflow.Vuln.Get ]
  in
  let project =
    { project with
      Phplang.Project.files =
        project.Phplang.Project.files
        @ [ { Phplang.Project.path = raw_path; source } ] }
  in
  { Builder.project; seeds = seeds @ raw_seeds }

(** Build the suite, with instance ids ["f%04d"] and each plugin's raw
    file appended. *)
let generate () = Suite.generate ~prefix:"f" ~plugins ~extend:with_raw_file ()
