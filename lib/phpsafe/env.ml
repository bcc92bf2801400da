(** Variable state — phpSAFE's [parser_variables] analogue (paper §III.C):
    "a multidimensional associative array [containing] everything needed to
    perform the taint analysis, like the variable name, source file name and
    line number, the dependencies from other variables, ... the filter
    functions applied".

    A scope holds local variables; the global table is shared across files
    (WordPress loads every plugin file into one runtime).  [global $x]
    declarations alias a local name to the global table.  [$obj] → class
    bindings let the analyzer resolve method calls on plugin objects.
    Properties of [$this] are stored per-class in the global table under
    ["Class::$prop"], so taint stored by one method is visible to others.

    A variable table is one mutable cell holding a persistent map, so the
    [--flow] fixpoint snapshots a scope by reading the cell and restores it
    by writing the cell back — O(1) either way, with unchanged bindings
    shared between states.

    The fixpoint also needs to know when a pass wrote state outside the
    cell it solves, since the next pass would read it: a table counts the
    writes it receives from scopes that do not own it as their locals (a
    function writing a global), and a scope counts the changes to its own
    bindings ([global], [=&], [$o = new C], [unset]).  The solver's own
    snapshot and restore write the cell directly and count nothing. *)

module S = Set.Make (String)
module SMap = Map.Make (String)

type table = {
  mutable vars : Taint.t SMap.t;
  mutable writes : int;  (** writes from scopes whose locals it is not *)
}

let table () = { vars = SMap.empty; writes = 0 }

type t = {
  locals : table;
  globals : table;  (** shared project-wide *)
  mutable declared_global : S.t;
  top_level : bool;  (** in global scope, locals = globals *)
  class_of : (string, string) Hashtbl.t;  (** variable -> class binding *)
  current_class : string option;  (** class owning the method under analysis *)
  aliases : (string, string) Hashtbl.t;
      (** [$a =& $b] reference bindings: variable -> representative.  The
          paper's methodology enables the same handling in Pixy via its
          [-A] flag (§IV.B). *)
  mutable changes : int;
      (** changes to [declared_global], [class_of] and [aliases] *)
}

let create_toplevel globals =
  {
    locals = globals;
    globals;
    declared_global = S.empty;
    top_level = true;
    class_of = Hashtbl.create 8;
    current_class = None;
    aliases = Hashtbl.create 8;
    changes = 0;
  }

let create_scope ?current_class globals =
  {
    locals = table ();
    globals;
    declared_global = S.empty;
    top_level = false;
    class_of = Hashtbl.create 8;
    current_class;
    aliases = Hashtbl.create 8;
    changes = 0;
  }

let changed t = t.changes <- t.changes + 1

(* Bind [key] to [v] in one of [t]'s binding tables, counting a change. *)
let rebind t h key v =
  match Hashtbl.find_opt h key with
  | Some old when String.equal old v -> ()
  | _ ->
      Hashtbl.replace h key v;
      changed t

(* Store [vars] in [tbl] on behalf of scope [t]; a write into a table that
   is not [t]'s locals is counted on the table. *)
let write t tbl vars =
  if vars != tbl.vars then begin
    tbl.vars <- vars;
    if tbl != t.locals then tbl.writes <- tbl.writes + 1
  end

let declare_global t name =
  let declared = S.add name t.declared_global in
  if declared != t.declared_global then begin
    t.declared_global <- declared;
    changed t
  end

(* follow the alias chain to the representative variable *)
let rec representative t name =
  match Hashtbl.find_opt t.aliases name with
  | Some next when not (String.equal next name) -> representative t next
  | _ -> name

(** Bind [name] as a reference to [target]: both now read and write the
    same abstract cell. *)
let alias t name target =
  let rep = representative t target in
  if not (String.equal rep name) then rebind t t.aliases name rep

let table_for t name =
  if t.top_level || S.mem name t.declared_global then t.globals else t.locals

let find tbl name =
  match SMap.find_opt name tbl.vars with
  | Some taint -> taint
  | None -> Taint.untainted

let get t name =
  let name = representative t name in
  find (table_for t name) name

let set t name taint =
  let name = representative t name in
  let tbl = table_for t name in
  write t tbl (SMap.add name taint tbl.vars)

(** Assigning to one array slot taints the whole array conservatively. *)
let set_join t name taint = set t name (Taint.join (get t name) taint)

(** [unset($a)] destroys only [$a]'s binding; a referenced cell stays alive
    through its other names.  When [$a] is itself the representative other
    names point at, its binding moves to the smallest-named of them, and
    the rest are re-pointed there. *)
let unset t name =
  if Hashtbl.mem t.aliases name then begin
    Hashtbl.remove t.aliases name;
    changed t
  end
  else begin
    let tbl = table_for t name in
    let binding = SMap.find_opt name tbl.vars in
    write t tbl (SMap.remove name tbl.vars);
    let others =
      Hashtbl.fold
        (fun v rep acc -> if String.equal rep name then v :: acc else acc)
        t.aliases []
      |> List.sort String.compare
    in
    match others with
    | [] -> ()
    | heir :: rest ->
        Hashtbl.remove t.aliases heir;
        List.iter (fun v -> Hashtbl.replace t.aliases v heir) rest;
        changed t;
        let dst = table_for t heir in
        write t dst
          (match binding with
          | Some taint -> SMap.add heir taint dst.vars
          | None -> SMap.remove heir dst.vars)
  end

(* -- class bindings ------------------------------------------------- *)

let bind_class t var cls = rebind t t.class_of var cls

let class_binding t var =
  match Hashtbl.find_opt t.class_of var with
  | Some c -> Some c
  | None -> if String.equal var "$this" then t.current_class else None

(* -- $this / static properties ------------------------------------- *)

let this_prop_key t prop =
  match t.current_class with
  | Some c -> Some (c ^ "::$" ^ prop)
  | None -> None

let static_prop_key cls prop = cls ^ "::" ^ prop

let get_global_key t key = find t.globals key

let set_global_key t key taint =
  write t t.globals (SMap.add key taint t.globals.vars)

let set_global_key_join t key taint =
  set_global_key t key (Taint.join (get_global_key t key) taint)
