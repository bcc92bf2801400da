(** Context-sensitivity evaluation suite (experiment E11).

    A small dedicated corpus — separate from the calibrated 35-plugin
    2012/2014 plans, whose instance counts must not change — exercising the
    sink-context-sensitive sanitization pass ([--contexts]):

    - {e real} context mismatches a context-free analysis misses: an
      [htmlspecialchars]-encoded value in an unquoted attribute or a
      [<script>] string, and an [addslashes]-escaped value in a numeric SQL
      position;
    - {e foils} a context-free analysis flags: [stripslashes] after
      [htmlspecialchars] flowing into a body or quoted-attribute position,
      where the HTML encoding is intact and adequate.

    Every seed carries exact ground truth via the usual sink markers, so
    the E11 precision delta (new true positives, removed false positives)
    is computed against labels, not expectations. *)

let get = Secflow.Vuln.Get
let post = Secflow.Vuln.Post

let plugins : Suite.plugin list =
  [ ( "form-mailer-ctx",
      [ (Plan.P_ctx_attr, get); (Plan.P_ctx_attr, post);
        (Plan.P_ctx_js, get);
        (Plan.P_ctx_sql_num, get); (Plan.P_ctx_sql_num, post);
        (Plan.T_ctx_revert_body, get); (Plan.T_ctx_revert_body, get);
        (Plan.T_ctx_revert_attr, get) ] );
    ( "report-exporter-ctx",
      [ (Plan.P_ctx_attr, get);
        (Plan.P_ctx_js, get); (Plan.P_ctx_js, post);
        (Plan.P_ctx_sql_num, get);
        (Plan.T_ctx_revert_body, get);
        (Plan.T_ctx_revert_attr, get); (Plan.T_ctx_revert_attr, get) ] ) ]

(** Build the suite, with instance ids ["c%04d"]. *)
let generate () = Suite.generate ~prefix:"c" ~plugins ()
