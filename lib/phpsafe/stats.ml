(** Analysis resources beyond the findings themselves (paper §III.D: the
    results-processing stage exposes "the variables (vulnerable variables,
    output variables and all the other variables), functions, PHP files
    included, tokens (the complete AST) and debug information" to help
    practitioners review and fix code). *)

module S = Set.Make (String)
module A = Phplang.Ast

type t = {
  st_files : int;
  st_tokens : int;             (** significant tokens over all files *)
  st_loc : int;
  st_functions : int;          (** free functions *)
  st_classes : int;
  st_methods : int;
  st_variables : int;          (** distinct variable names *)
  st_superglobal_reads : int;  (** occurrences of configured input vectors *)
  st_echo_sinks : int;         (** echo/print output points *)
  st_includes : int;           (** include/require expressions *)
}

let empty =
  { st_files = 0; st_tokens = 0; st_loc = 0; st_functions = 0; st_classes = 0;
    st_methods = 0; st_variables = 0; st_superglobal_reads = 0;
    st_echo_sinks = 0; st_includes = 0 }

let superglobals =
  [ "$_GET"; "$_POST"; "$_COOKIE"; "$_REQUEST"; "$_SERVER"; "$_FILES" ]

(** Gather the §III.D resource statistics over a whole project.  Files that
    fail to parse contribute their token and LOC counts only. *)
let of_project (project : Phplang.Project.t) : t =
  let functions = ref 0 and classes = ref 0 and methods = ref 0 in
  let vars = ref S.empty and sg_reads = ref 0 and echoes = ref 0 in
  let includes = ref 0 in
  let add_var v = vars := S.add v !vars in
  let add_params = List.iter (fun (p : A.param) -> add_var p.A.p_name) in
  let rec visit_expr (e : A.expr) =
    (match e.A.e with
    | A.Var v ->
        add_var v;
        if List.mem v superglobals then incr sg_reads
    | A.PrintE _ -> incr echoes
    | A.IncludeE _ -> incr includes
    | A.Closure cl -> add_params cl.A.cl_params
    | _ -> ());
    A.iter_expr ~expr:visit_expr ~stmt:visit_stmt e
  and visit_stmt (s : A.stmt) =
    (match s.A.s with
    | A.Echo _ -> incr echoes
    | A.Global names -> List.iter add_var names
    | A.StaticVar vs -> List.iter (fun (v, _) -> add_var v) vs
    | A.FuncDef f ->
        incr functions;
        add_params f.A.f_params
    | A.ClassDef c ->
        incr classes;
        methods := !methods + List.length c.A.c_methods;
        List.iter (fun (m : A.method_def) -> add_params m.A.m_func.A.f_params)
          c.A.c_methods
    | _ -> ());
    A.iter_stmt ~expr:visit_expr ~stmt:visit_stmt s
  in
  let tokens = ref 0 and loc = ref 0 in
  List.iter
    (fun (f : Phplang.Project.file) ->
      loc := !loc + Phplang.Loc.count f.Phplang.Project.source;
      (match Phplang.Lexer.(drain (reader f.Phplang.Project.source)) with
      | n -> tokens := !tokens + n
      | exception Phplang.Lexer.Error _ -> ());
      match Phplang.Project.parse_file f with
      | Ok prog -> List.iter visit_stmt prog
      | Error _ -> ())
    project.Phplang.Project.files;
  {
    st_files = Phplang.Project.file_count project;
    st_tokens = !tokens;
    st_loc = !loc;
    st_functions = !functions;
    st_classes = !classes;
    st_methods = !methods;
    st_variables = S.cardinal !vars;
    st_superglobal_reads = !sg_reads;
    st_echo_sinks = !echoes;
    st_includes = !includes;
  }

let pp ppf t =
  Format.fprintf ppf
    "files=%d tokens=%d loc=%d functions=%d classes=%d methods=%d \
     variables=%d superglobal-reads=%d echo-sinks=%d includes=%d"
    t.st_files t.st_tokens t.st_loc t.st_functions t.st_classes t.st_methods
    t.st_variables t.st_superglobal_reads t.st_echo_sinks t.st_includes
