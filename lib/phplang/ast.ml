(** Abstract syntax tree for the PHP 5 subset used by WordPress-style
    plugins.  Every expression and statement carries a source position so
    analyzers can report the exact file/line of sources, sinks and
    intermediate assignments (paper §III.D). *)

type pos = { file : string; line : int }

let dummy_pos = { file = "<none>"; line = 0 }
let pp_pos ppf p = Format.fprintf ppf "%s:%d" p.file p.line

type binop =
  | Concat  (** [.] — the operator that matters most for taint analysis *)
  | Plus | Minus | Mul | Div | Mod
  | Eq | Neq | Identical | NotIdentical
  | Lt | Gt | Le | Ge
  | BoolAnd | BoolOr
  | Coalesce  (** [??] — value-selecting, so taint flows from both sides *)

type unop = Not | Neg | PreInc | PreDec | PostInc | PostDec | Silence

type cast = CastInt | CastFloat | CastString | CastArray | CastBool

type include_kind = Include | IncludeOnce | Require | RequireOnce

type visibility = Public | Private | Protected

type expr = { e : expr_desc; epos : pos }

and expr_desc =
  | Null
  | True
  | False
  | Int of int
  | Float of float
  | Str of string                       (** decoded single-quoted literal *)
  | Interp of interp_part list          (** double-quoted string *)
  | Var of string                       (** ["$x"], dollar included *)
  | ArrayGet of expr * expr option      (** [$a[e]]; [None] is [$a[]] *)
  | Prop of expr * string               (** [$o->p] *)
  | StaticProp of string * string       (** [C::$p], property name w/ [$] *)
  | ClassConst of string * string       (** [C::K] *)
  | Const of string                     (** bare identifier constant *)
  | ArrayLit of (expr option * expr) list  (** [array(k => v, v2, ...)] *)
  | Call of string * expr list
  | MethodCall of expr * string * expr list    (** [$o->m(args)] *)
  | StaticCall of string * string * expr list  (** [C::m(args)] *)
  | New of string * expr list
  | Assign of expr * expr
  | AssignRef of expr * expr            (** [$a =& $b] (Pixy's -A flag) *)
  | OpAssign of binop * expr * expr     (** [.=], [+=], ... *)
  | Bin of binop * expr * expr
  | Un of unop * expr
  | Ternary of expr * expr option * expr  (** [c ? a : b]; [c ?: b] *)
  | CastE of cast * expr
  | Isset of expr list
  | EmptyE of expr
  | PrintE of expr                      (** [print e] is an expression *)
  | Exit of expr option                 (** [exit] / [die] *)
  | IncludeE of include_kind * expr
  | Closure of closure
  | ListAssign of expr option list * expr  (** [list($a, , $b) = e] *)

and interp_part = ILit of string | IExpr of expr

and closure = {
  cl_params : param list;
  cl_uses : (string * bool) list;  (** captured vars; [true] = by reference *)
  cl_body : stmt list;
}

and param = {
  p_name : string;   (** with [$] *)
  p_default : expr option;
  p_by_ref : bool;
  p_hint : string option;  (** class type hint, e.g. [WP_Widget] *)
}

and stmt = { s : stmt_desc; spos : pos }

and stmt_desc =
  | Expr of expr
  | Echo of expr list
  | If of (expr * stmt list) list * stmt list option
      (** if / elseif* chain, optional else *)
  | While of expr * stmt list
  | DoWhile of stmt list * expr
  | For of expr list * expr list * expr list * stmt list
  | Foreach of expr * foreach_binding * stmt list
  | Switch of expr * case list
  | Break
  | Continue
  | Return of expr option
  | Global of string list                (** variable names with [$] *)
  | StaticVar of (string * expr option) list
  | Unset of expr list
  | Block of stmt list
  | FuncDef of func
  | ClassDef of cls
  | InlineHtml of string
  | Throw of expr
  | TryCatch of stmt list * catch list
  | Nop

and foreach_binding =
  | ForeachValue of expr                (** [as $v] *)
  | ForeachKeyValue of expr * expr      (** [as $k => $v] *)

and case = { case_guard : expr option; case_body : stmt list }
    (** [case_guard = None] is [default:] *)

and catch = { catch_class : string; catch_var : string; catch_body : stmt list }

and func = {
  f_name : string;
  f_params : param list;
  f_body : stmt list;
  f_pos : pos;
}

and cls = {
  c_name : string;
  c_parent : string option;
  c_implements : string list;
  c_consts : (string * expr) list;
  c_props : prop_def list;
  c_methods : method_def list;
  c_pos : pos;
}

and prop_def = {
  pr_vis : visibility;
  pr_static : bool;
  pr_name : string;  (** with [$] *)
  pr_default : expr option;
}

and method_def = {
  m_vis : visibility;
  m_static : bool;
  m_func : func;
}

type program = stmt list

let mk_e ?(pos = dummy_pos) e = { e; epos = pos }
let mk_s ?(pos = dummy_pos) s = { s; spos = pos }

(** {2 Children}

    [iter_expr ~expr ~stmt e] and [iter_stmt ~expr ~stmt s] visit one
    level of the tree: they call [expr] on each direct sub-expression and
    [stmt] on each direct sub-statement, in source order, and recurse no
    further.  A closure's parameter defaults and body are children of its
    [Closure] expression; a function yields its parameter defaults, then
    its body; a class yields its constant values, then its property
    defaults, then each method as a function.  A walker recurses by calling
    these from its own callbacks.  The two matches are the only
    constructor-by-constructor list of children, so a new constructor is
    added here once and every walker built on them sees it. *)

let iter_params_body ~expr ~stmt params body =
  List.iter (fun p -> Option.iter expr p.p_default) params;
  List.iter stmt body

let iter_expr ~expr ~stmt (x : expr) =
  match x.e with
  | Null | True | False | Int _ | Float _ | Str _ | Var _ | StaticProp _
  | ClassConst _ | Const _ ->
      ()
  | Interp parts -> List.iter (function IExpr e -> expr e | ILit _ -> ()) parts
  | ArrayGet (a, i) ->
      expr a;
      Option.iter expr i
  | Prop (e, _) | Un (_, e) | CastE (_, e) | EmptyE e | PrintE e
  | IncludeE (_, e) ->
      expr e
  | ArrayLit items ->
      List.iter
        (fun (k, v) ->
          Option.iter expr k;
          expr v)
        items
  | Call (_, args) | StaticCall (_, _, args) | New (_, args) | Isset args ->
      List.iter expr args
  | MethodCall (o, _, args) ->
      expr o;
      List.iter expr args
  | Assign (l, r) | AssignRef (l, r) | OpAssign (_, l, r) | Bin (_, l, r) ->
      expr l;
      expr r
  | Ternary (c, t, e) ->
      expr c;
      Option.iter expr t;
      expr e
  | Exit e -> Option.iter expr e
  | Closure c -> iter_params_body ~expr ~stmt c.cl_params c.cl_body
  | ListAssign (slots, rhs) ->
      List.iter (Option.iter expr) slots;
      expr rhs

let iter_stmt ~expr ~stmt (x : stmt) =
  let func f = iter_params_body ~expr ~stmt f.f_params f.f_body in
  match x.s with
  | Break | Continue | Global _ | InlineHtml _ | Nop -> ()
  | Expr e | Throw e -> expr e
  | Echo es | Unset es -> List.iter expr es
  | Return e -> Option.iter expr e
  | If (branches, els) ->
      List.iter
        (fun (c, b) ->
          expr c;
          List.iter stmt b)
        branches;
      Option.iter (List.iter stmt) els
  | While (c, b) ->
      expr c;
      List.iter stmt b
  | DoWhile (b, c) ->
      List.iter stmt b;
      expr c
  | For (i, c, u, b) ->
      List.iter expr i;
      List.iter expr c;
      List.iter expr u;
      List.iter stmt b
  | Foreach (subject, binding, b) ->
      expr subject;
      (match binding with
      | ForeachValue v -> expr v
      | ForeachKeyValue (k, v) ->
          expr k;
          expr v);
      List.iter stmt b
  | Switch (subject, cases) ->
      expr subject;
      List.iter
        (fun c ->
          Option.iter expr c.case_guard;
          List.iter stmt c.case_body)
        cases
  | StaticVar vars -> List.iter (fun (_, d) -> Option.iter expr d) vars
  | Block b -> List.iter stmt b
  | FuncDef f -> func f
  | ClassDef c ->
      List.iter (fun (_, v) -> expr v) c.c_consts;
      List.iter (fun p -> Option.iter expr p.pr_default) c.c_props;
      List.iter (fun m -> func m.m_func) c.c_methods
  | TryCatch (b, catches) ->
      List.iter stmt b;
      List.iter (fun c -> List.iter stmt c.catch_body) catches

(** {2 Value flow}

    [value_flow e] says how the operators every analyzer treats alike carry
    a value: the operands of [e] in evaluation order (an index before its
    base, a key before its value), each either [Carried] into the value or
    evaluated for its [Effect] only, and [Lit] for constant text that joins
    the clean value.  The value is the join of the carried operands and
    literals, left to right, and clean when there is none: a literal or a
    named constant, arithmetic, comparison, a boolean operator, a numeric
    cast, [isset] and [empty].  A string interpolation and an array literal
    start from a [Lit] (the empty string or array), so their value is a
    join even with one carried operand, while an index, [@] and the string
    and array casts pass their operand's value through.  Every other
    constructor (variables, properties, assignments, calls, [print],
    [exit], [include], closures) is analyzer-specific: it yields no
    operands, and each analyzer matches it before falling through to this
    table.  This is the only constructor-by-constructor account of how
    operators carry taint, so the analyzers cannot drift apart on it. *)

type operand = Carried of expr | Effect of expr | Lit

let value_flow (x : expr) =
  match x.e with
  | Interp parts ->
      Lit :: List.map (function ILit _ -> Lit | IExpr e -> Carried e) parts
  | ArrayGet (b, Some i) -> [ Effect i; Carried b ]
  | ArrayGet (b, None)
  | Un (Silence, b)
  | CastE ((CastString | CastArray), b) ->
      [ Carried b ]
  | ArrayLit items ->
      Lit
      :: List.concat_map
           (fun (k, v) ->
             match k with Some k -> [ Effect k; Carried v ] | None -> [ Carried v ])
           items
  | Bin ((Concat | Coalesce), l, r) -> [ Carried l; Carried r ]
  | Bin (_, l, r) -> [ Effect l; Effect r ]
  | Un (_, e) | CastE (_, e) | EmptyE e -> [ Effect e ]
  | Ternary (c, Some t, e) -> [ Effect c; Carried t; Carried e ]
  | Ternary (c, None, e) -> [ Carried c; Carried e ]
  | Isset es -> List.map (fun e -> Effect e) es
  | Null | True | False | Int _ | Float _ | Str _ | Const _ | ClassConst _
  | Var _ | Prop _ | StaticProp _ | Call _ | MethodCall _ | StaticCall _
  | New _ | Assign _ | AssignRef _ | OpAssign _ | PrintE _ | Exit _
  | IncludeE _ | Closure _ | ListAssign _ ->
      []

(* [acc] is the join of the carried operands so far, [None] before the
   first one. *)
let rec fold_operands ~clean ~join ~eval ~effect env acc = function
  | [] -> Option.value acc ~default:clean
  | Effect x :: ops ->
      ignore (effect env x);
      fold_operands ~clean ~join ~eval ~effect env acc ops
  | ((Carried _ | Lit) as op) :: ops ->
      let v = match op with Carried x -> eval env x | _ -> clean in
      let v = match acc with Some a -> join a v | None -> v in
      fold_operands ~clean ~join ~eval ~effect env (Some v) ops

(** [flow_value ~clean ~join ~eval ~effect env e]: the value of [e] by
    {!value_flow}: each operand in order goes to [eval env] or, when it is
    evaluated for its effects only, to [effect env], whose result is
    discarded; the results of the carried ones (a [Lit] as [clean]) are
    joined left to right. *)
let flow_value ~clean ~join ~eval ~effect env e =
  fold_operands ~clean ~join ~eval ~effect env None (value_flow e)

(** Structural equality ignoring positions — used by the parse/print
    round-trip property tests. *)
let rec equal_expr (a : expr) (b : expr) =
  match (a.e, b.e) with
  | Null, Null | True, True | False, False -> true
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | Str x, Str y -> String.equal x y
  | Interp xs, Interp ys -> equal_list equal_interp xs ys
  | Var x, Var y | Const x, Const y -> String.equal x y
  | ArrayGet (a1, i1), ArrayGet (a2, i2) ->
      equal_expr a1 a2 && Option.equal equal_expr i1 i2
  | Prop (o1, p1), Prop (o2, p2) -> equal_expr o1 o2 && String.equal p1 p2
  | StaticProp (c1, p1), StaticProp (c2, p2)
  | ClassConst (c1, p1), ClassConst (c2, p2) ->
      String.equal c1 c2 && String.equal p1 p2
  | ArrayLit xs, ArrayLit ys ->
      equal_list
        (fun (k1, v1) (k2, v2) ->
          Option.equal equal_expr k1 k2 && equal_expr v1 v2)
        xs ys
  | Call (f1, a1), Call (f2, a2) ->
      String.equal f1 f2 && equal_list equal_expr a1 a2
  | MethodCall (o1, m1, a1), MethodCall (o2, m2, a2) ->
      equal_expr o1 o2 && String.equal m1 m2 && equal_list equal_expr a1 a2
  | StaticCall (c1, m1, a1), StaticCall (c2, m2, a2) ->
      String.equal c1 c2 && String.equal m1 m2 && equal_list equal_expr a1 a2
  | New (c1, a1), New (c2, a2) ->
      String.equal c1 c2 && equal_list equal_expr a1 a2
  | Assign (l1, r1), Assign (l2, r2) | AssignRef (l1, r1), AssignRef (l2, r2)
    ->
      equal_expr l1 l2 && equal_expr r1 r2
  | OpAssign (o1, l1, r1), OpAssign (o2, l2, r2) ->
      o1 = o2 && equal_expr l1 l2 && equal_expr r1 r2
  | Bin (o1, l1, r1), Bin (o2, l2, r2) ->
      o1 = o2 && equal_expr l1 l2 && equal_expr r1 r2
  | Un (o1, e1), Un (o2, e2) -> o1 = o2 && equal_expr e1 e2
  | Ternary (c1, t1, e1), Ternary (c2, t2, e2) ->
      equal_expr c1 c2 && Option.equal equal_expr t1 t2 && equal_expr e1 e2
  | CastE (c1, e1), CastE (c2, e2) -> c1 = c2 && equal_expr e1 e2
  | Isset xs, Isset ys -> equal_list equal_expr xs ys
  | EmptyE e1, EmptyE e2 | PrintE e1, PrintE e2 -> equal_expr e1 e2
  | Exit e1, Exit e2 -> Option.equal equal_expr e1 e2
  | IncludeE (k1, e1), IncludeE (k2, e2) -> k1 = k2 && equal_expr e1 e2
  | Closure c1, Closure c2 ->
      equal_list equal_param c1.cl_params c2.cl_params
      && c1.cl_uses = c2.cl_uses
      && equal_list equal_stmt c1.cl_body c2.cl_body
  | ListAssign (l1, r1), ListAssign (l2, r2) ->
      equal_list (Option.equal equal_expr) l1 l2 && equal_expr r1 r2
  | _, _ -> false

and equal_interp a b =
  match (a, b) with
  | ILit x, ILit y -> String.equal x y
  | IExpr x, IExpr y -> equal_expr x y
  | _, _ -> false

and equal_param (a : param) (b : param) =
  String.equal a.p_name b.p_name
  && Option.equal equal_expr a.p_default b.p_default
  && a.p_by_ref = b.p_by_ref
  && Option.equal String.equal a.p_hint b.p_hint

and equal_stmt (a : stmt) (b : stmt) =
  match (a.s, b.s) with
  | Expr e1, Expr e2 -> equal_expr e1 e2
  | Echo xs, Echo ys -> equal_list equal_expr xs ys
  | If (br1, el1), If (br2, el2) ->
      equal_list
        (fun (c1, b1) (c2, b2) -> equal_expr c1 c2 && equal_list equal_stmt b1 b2)
        br1 br2
      && Option.equal (equal_list equal_stmt) el1 el2
  | While (c1, b1), While (c2, b2) ->
      equal_expr c1 c2 && equal_list equal_stmt b1 b2
  | DoWhile (b1, c1), DoWhile (b2, c2) ->
      equal_list equal_stmt b1 b2 && equal_expr c1 c2
  | For (i1, c1, u1, b1), For (i2, c2, u2, b2) ->
      equal_list equal_expr i1 i2 && equal_list equal_expr c1 c2
      && equal_list equal_expr u1 u2 && equal_list equal_stmt b1 b2
  | Foreach (e1, bind1, b1), Foreach (e2, bind2, b2) ->
      equal_expr e1 e2 && equal_binding bind1 bind2 && equal_list equal_stmt b1 b2
  | Switch (e1, cs1), Switch (e2, cs2) ->
      equal_expr e1 e2
      && equal_list
           (fun c1 c2 ->
             Option.equal equal_expr c1.case_guard c2.case_guard
             && equal_list equal_stmt c1.case_body c2.case_body)
           cs1 cs2
  | Break, Break | Continue, Continue | Nop, Nop -> true
  | Return e1, Return e2 -> Option.equal equal_expr e1 e2
  | Global v1, Global v2 -> v1 = v2
  | StaticVar v1, StaticVar v2 ->
      equal_list
        (fun (n1, d1) (n2, d2) ->
          String.equal n1 n2 && Option.equal equal_expr d1 d2)
        v1 v2
  | Unset xs, Unset ys -> equal_list equal_expr xs ys
  | Block b1, Block b2 -> equal_list equal_stmt b1 b2
  | FuncDef f1, FuncDef f2 -> equal_func f1 f2
  | ClassDef c1, ClassDef c2 -> equal_cls c1 c2
  | InlineHtml h1, InlineHtml h2 -> String.equal h1 h2
  | Throw e1, Throw e2 -> equal_expr e1 e2
  | TryCatch (b1, c1), TryCatch (b2, c2) ->
      equal_list equal_stmt b1 b2
      && equal_list
           (fun x y ->
             String.equal x.catch_class y.catch_class
             && String.equal x.catch_var y.catch_var
             && equal_list equal_stmt x.catch_body y.catch_body)
           c1 c2
  | _, _ -> false

and equal_binding a b =
  match (a, b) with
  | ForeachValue e1, ForeachValue e2 -> equal_expr e1 e2
  | ForeachKeyValue (k1, v1), ForeachKeyValue (k2, v2) ->
      equal_expr k1 k2 && equal_expr v1 v2
  | _, _ -> false

and equal_func (a : func) (b : func) =
  String.equal a.f_name b.f_name
  && equal_list equal_param a.f_params b.f_params
  && equal_list equal_stmt a.f_body b.f_body

and equal_cls (a : cls) (b : cls) =
  String.equal a.c_name b.c_name
  && Option.equal String.equal a.c_parent b.c_parent
  && a.c_implements = b.c_implements
  && equal_list
       (fun (n1, e1) (n2, e2) -> String.equal n1 n2 && equal_expr e1 e2)
       a.c_consts b.c_consts
  && equal_list
       (fun p1 p2 ->
         p1.pr_vis = p2.pr_vis && p1.pr_static = p2.pr_static
         && String.equal p1.pr_name p2.pr_name
         && Option.equal equal_expr p1.pr_default p2.pr_default)
       a.c_props b.c_props
  && equal_list
       (fun m1 m2 ->
         m1.m_vis = m2.m_vis && m1.m_static = m2.m_static
         && equal_func m1.m_func m2.m_func)
       a.c_methods b.c_methods

and equal_list : 'a. ('a -> 'a -> bool) -> 'a list -> 'a list -> bool =
 fun eq xs ys ->
  List.length xs = List.length ys && List.for_all2 eq xs ys

let equal_program = equal_list equal_stmt

(** Number of statements in a program, counting nested bodies (function,
    method and control-flow bodies, not closure bodies) — a cheap
    complexity proxy used by tests. *)
let rec stmt_size (s : stmt) =
  let n = ref 1 in
  iter_stmt ~expr:ignore ~stmt:(fun c -> n := !n + stmt_size c) s;
  !n

let program_size (p : program) =
  List.fold_left (fun acc s -> acc + stmt_size s) 0 p

(** Human-readable name of an expression, as findings show the vulnerable
    variable at a sink: [$row->name], [$a[...]], [f()], [<concat>]. *)
let rec name_of_expr (e : expr) =
  match e.e with
  | Var v -> v
  | ArrayGet (b, _) -> name_of_expr b ^ "[...]"
  | Prop (b, p) -> name_of_expr b ^ "->" ^ p
  | StaticProp (c, p) -> c ^ "::" ^ p
  | Call (f, _) -> f ^ "()"
  | MethodCall (b, m, _) -> name_of_expr b ^ "->" ^ m ^ "()"
  | StaticCall (c, m, _) -> c ^ "::" ^ m ^ "()"
  | Interp _ -> "<string>"
  | Bin (Concat, _, _) -> "<concat>"
  | _ -> "<expr>"
