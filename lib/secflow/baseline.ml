(** Machinery the two baseline analyzers (RIPS, Pixy) share: a flag taint,
    builtin roles, sink tables and the finding builder.  Each tool brings
    its knowledge as data (a [builtin] table, a sink table, a trace note)
    and keeps its own traversal; the per-file driver is {!Cache.file_loop}. *)

(* -- flag taint --------------------------------------------------------- *)

(** [live] and [was] are bitmasks over {!Vuln.kind}: the kinds the value is
    tainted for now, and those a sanitizer cleared, revivable by a revert.
    The source is the first one joined in. *)
type taint = {
  live : int;
  was : int;
  source : Vuln.source option;
  source_pos : Phplang.Ast.pos option;
}

let bit = function
  | Vuln.Xss -> 1
  | Vuln.Sqli -> 2
  | Vuln.Cmdi -> 4
  | Vuln.Path_traversal -> 8
  | Vuln.Ssrf -> 16
  | Vuln.Second_order_sqli -> 32

let mask kinds = List.fold_left (fun m k -> m lor bit k) 0 kinds
let clean = { live = 0; was = 0; source = None; source_pos = None }

let of_source kinds source pos =
  { clean with live = mask kinds; source = Some source; source_pos = Some pos }

let is_tainted kind t = t.live land bit kind <> 0

let join a b =
  match a.source with
  | Some _ -> { a with live = a.live lor b.live; was = a.was lor b.was }
  | None -> { b with live = a.live lor b.live; was = a.was lor b.was }

let join_all = List.fold_left join clean

let sanitize kinds t =
  let m = mask kinds in
  { t with live = t.live land lnot m; was = t.was lor (t.live land m) }

let revert t = { t with live = t.live lor t.was }

(* -- builtin roles ------------------------------------------------------ *)

type role =
  | Source of Vuln.kind list * Vuln.source
  | Sanitizer of Vuln.kind list
  | Revert
  | Passthrough  (** the first argument's taint *)
  | Join_args  (** tainted if any argument is *)

(** The call's taint under [role]; [arg] evaluates an argument and is
    applied only to the arguments the role reads, left to right. *)
let apply role ~pos ~arg args =
  let first () = match args with a :: _ -> arg a | [] -> clean in
  match role with
  | Source (kinds, src) -> of_source kinds src pos
  | Sanitizer kinds -> sanitize kinds (first ())
  | Revert -> revert (first ())
  | Passthrough -> first ()
  | Join_args -> join_all (List.map arg args)

(* -- sinks -------------------------------------------------------------- *)

(** A sink function, the kind it reports and which arguments reach it. *)
type sink = string * Vuln.kind * [ `First | `All ]

(** The (kind, argument) pairs a call of lowercase [name] sinks, in table
    order. *)
let sink_args (table : sink list) name args =
  List.concat_map
    (fun (n, kind, which) ->
      if not (String.equal n name) then []
      else
        match (which, args) with
        | `All, _ -> List.map (fun a -> (kind, a)) args
        | `First, a :: _ -> [ (kind, a) ]
        | `First, [] -> [])
    table

(* -- findings ----------------------------------------------------------- *)

(** A finding whose trace is the single source step, annotated [note]. *)
let finding ~note ~kind ~sink_pos ~sink ~variable t : Report.finding =
  let source = Option.value t.source ~default:Vuln.Unknown_source in
  let source_pos = Option.value t.source_pos ~default:Phplang.Ast.dummy_pos in
  { Report.kind; sink_pos; sink; variable; source; source_pos;
    trace =
      [ { Report.step_var = Vuln.source_to_string source;
          step_pos = source_pos; step_note = note } ];
    context = None; sanitizers_applied = []; trace_truncated = false }
