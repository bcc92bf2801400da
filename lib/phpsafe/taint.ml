(** Taint values for phpSAFE's analysis stage (paper §III.C).

    A taint value records, per vulnerability kind, whether the data is
    currently attacker-controlled, and — for the function-summary analysis —
    {e which formal parameters} the value depends on.  Sanitization clears
    the live bits but remembers them in the [was] fields so that {e revert}
    functions ([stripslashes] & co., §III.A) can restore them, reproducing
    phpSAFE's revert semantics.

    The per-kind state lives in a map indexed by {!Vuln.kind}, so adding a
    vulnerability class extends the engine without touching this module.
    Every operation maintains the {b canonical-form invariant}: clean
    components and empty sanitizer sets are absent from their maps, which
    makes structural map equality the convergence test of the flow-sensitive
    fixpoint ({!equal_modulo_trace}). *)

open Secflow

module Int_set = Set.Make (Int)
module San_set = Set.Make (String)

module Kmap = Map.Make (struct
  type t = Vuln.kind

  let compare = Vuln.compare_kind
end)

(** One vulnerability kind's component of a taint value. *)
type comp = {
  live : bool;            (** currently attacker-controlled *)
  was : bool;             (** tainted before sanitization (revertible) *)
  deps : Int_set.t;       (** parameter indices whose taint reaches here *)
  was_deps : Int_set.t;   (** dependencies neutralised by a sanitizer *)
}

let clean_comp =
  { live = false; was = false; deps = Int_set.empty; was_deps = Int_set.empty }

let comp_is_clean c =
  (not c.live) && (not c.was)
  && Int_set.is_empty c.deps
  && Int_set.is_empty c.was_deps

(** Sanitizer-set tracking for the context-inference pass ([--contexts],
    §VI future work).  Instead of a per-kind boolean, the value carries the
    {e names} of the sanitizers it passed through; the verdict at the sink
    intersects this set with the sanitizers adequate for the inferred
    output context.  The record is also a {e delta}: [undone]/[undone_all]
    remember which previously-applied sanitizers a revert function undid,
    so function summaries can replay the effect on caller arguments
    ({!compose_sans}). *)
type sans = {
  applied : San_set.t Kmap.t;  (** per-kind sanitizers passed through *)
  undone : San_set.t;          (** sanitizer names undone by a revert *)
  undone_all : bool;           (** a revert with unknown scope undid them all *)
}

let no_sans =
  { applied = Kmap.empty; undone = San_set.empty; undone_all = false }

type t = {
  comps : comp Kmap.t;       (** per-kind taint components; canonical *)
  sans : sans;               (** sanitizer set (context pass only) *)
  source : (Vuln.source * Phplang.Ast.pos) option;
  trace : Report.step list;  (** most recent first; bounded *)
  trace_truncated : bool;    (** [trace] hit {!max_trace_len}; steps dropped *)
}

let max_trace_len = 16

let untainted =
  {
    comps = Kmap.empty;
    sans = no_sans;
    source = None;
    trace = [];
    trace_truncated = false;
  }

let comp kind t =
  match Kmap.find_opt kind t.comps with Some c -> c | None -> clean_comp

(* Canonicalising per-kind update: clean results leave the map. *)
let update_comp kind f t =
  let c = f (comp kind t) in
  {
    t with
    comps =
      (if comp_is_clean c then Kmap.remove kind t.comps
       else Kmap.add kind c t.comps);
  }

(** Fresh taint from a configured source. *)
let of_source ~kinds ~source ~pos =
  let comps =
    List.fold_left
      (fun m k -> Kmap.add k { clean_comp with live = true } m)
      Kmap.empty kinds
  in
  { untainted with comps; source = Some (source, pos) }

(** Symbolic taint of formal parameter [i] during summary analysis: the
    value depends on the parameter for every kind — which kinds matter is
    decided at the call site by the argument's own components. *)
let of_param i =
  let c = { clean_comp with deps = Int_set.singleton i } in
  {
    untainted with
    comps = List.fold_left (fun m k -> Kmap.add k c m) Kmap.empty Vuln.all_kinds;
  }

let is_tainted kind t = (comp kind t).live
let deps kind t = (comp kind t).deps
let was kind t = (comp kind t).was
let has_deps t = Kmap.exists (fun _ c -> not (Int_set.is_empty c.deps)) t.comps
let any_tainted t = Kmap.exists (fun _ c -> c.live) t.comps
let any_was t = Kmap.exists (fun _ c -> c.was) t.comps
let interesting t = any_tainted t || has_deps t

(** Is [kind]'s component of the value live or parameter-dependent — i.e.
    does its sanitizer set mean anything? *)
let relevant kind t =
  let c = comp kind t in
  c.live || not (Int_set.is_empty c.deps)

let applied kind t =
  match Kmap.find_opt kind t.sans.applied with
  | Some s -> s
  | None -> San_set.empty

(* Joined applied set: a sanitizer protects the join only if it protects
   every contributing component, so when both sides matter we intersect. *)
let join_applied rel_a rel_b a b =
  if rel_a && rel_b then San_set.inter a b
  else if rel_a then a
  else if rel_b then b
  else San_set.empty

let join_sans a b =
  let applied =
    Kmap.merge
      (fun k sa sb ->
        let sa = Option.value sa ~default:San_set.empty in
        let sb = Option.value sb ~default:San_set.empty in
        let s = join_applied (relevant k a) (relevant k b) sa sb in
        if San_set.is_empty s then None else Some s)
      a.sans.applied b.sans.applied
  in
  {
    applied;
    undone = San_set.union a.sans.undone b.sans.undone;
    undone_all = a.sans.undone_all || b.sans.undone_all;
  }

let join_comp a b =
  {
    live = a.live || b.live;
    was = a.was || b.was;
    deps = Int_set.union a.deps b.deps;
    was_deps = Int_set.union a.was_deps b.was_deps;
  }

(* [join a a] is [a] itself exactly when [join_sans] keeps every applied
   set, i.e. every kind with one is relevant; otherwise the join drops the
   sets of the irrelevant kinds and must be rebuilt. *)
let join a b =
  if a == b && Kmap.for_all (fun k _ -> relevant k a) a.sans.applied then a
  else
  (* keep the trace (and its truncation flag) of the "more tainted" operand *)
  let a_leads = any_tainted a || has_deps a in
  {
    comps =
      Kmap.union (fun _ ca cb -> Some (join_comp ca cb)) a.comps b.comps;
    sans = join_sans a b;
    source =
      (match (a.source, b.source) with
      | (Some _ as s), _ -> s
      | None, s -> s);
    trace = (if a_leads then a.trace else b.trace);
    trace_truncated = (if a_leads then a.trace_truncated else b.trace_truncated);
  }

let join_all = List.fold_left join untainted

let equal_comp a b =
  a.live = b.live && a.was = b.was
  && Int_set.equal a.deps b.deps
  && Int_set.equal a.was_deps b.was_deps

let equal_sans a b =
  Kmap.equal San_set.equal a.applied b.applied
  && San_set.equal a.undone b.undone
  && a.undone_all = b.undone_all

(** Structural equality ignoring the provenance fields ([source], [trace],
    [trace_truncated]): they carry positions that may differ between join
    orders without changing the verdict.  Sound because every operation
    keeps [comps]/[applied] canonical (no clean/empty entries).  This is
    the convergence test of the flow-sensitive fixpoint ([--flow]). *)
let equal_modulo_trace a b =
  a == b
  || Kmap.equal equal_comp a.comps b.comps && equal_sans a.sans b.sans

(** Neutralise [kind], remembering the pre-sanitization state. *)
let sanitize kind t =
  update_comp kind
    (fun c ->
      {
        live = false;
        was = c.was || c.live;
        deps = Int_set.empty;
        was_deps = Int_set.union c.was_deps c.deps;
      })
    t

let sanitize_kinds kinds t = List.fold_left (fun t k -> sanitize k t) t kinds

(** Revert function semantics: whatever was sanitized becomes live again. *)
let revert t =
  {
    t with
    comps =
      Kmap.map
        (fun c ->
          { c with live = c.live || c.was; deps = Int_set.union c.deps c.was_deps })
        t.comps;
  }

(** Numeric / boolean results carry no taint at all. *)
let scrub _t = untainted

(** Restrict to one kind's live component: the concrete flag, the parameter
    dependencies and the provenance, but nothing of the other kinds — a
    function may pass a parameter through for one vulnerability class while
    sanitizing another.  The sanitizer set is kept whole (it is filtered by
    relevance at joins and sinks). *)
let restrict kind t =
  let c = comp kind t in
  let c = { c with was = false; was_deps = Int_set.empty } in
  {
    comps = (if comp_is_clean c then Kmap.empty else Kmap.singleton kind c);
    sans = t.sans;
    source = (if c.live || not (Int_set.is_empty c.deps) then t.source else None);
    trace = t.trace;
    trace_truncated = t.trace_truncated;
  }

(** Drop every parameter dependency (live and sanitized) while keeping the
    concrete taint — the base of a summary's return-value instantiation. *)
let forget_deps t =
  {
    t with
    comps =
      Kmap.filter_map
        (fun _ c ->
          let c = { c with deps = Int_set.empty; was_deps = Int_set.empty } in
          if comp_is_clean c then None else Some c)
        t.comps;
  }

(* -- sanitizer-set operations (context pass) ------------------------------

   In context mode a sanitizer call does NOT clear the live bits: it adds
   its name to the per-kind applied set and the verdict is deferred to the
   sink, where the set is intersected with the sanitizers adequate for the
   inferred output context. *)

(** Record that the value passed through sanitizer [name] for [kinds],
    keeping the live taint bits (the sink decides adequacy). *)
let record_sanitizer ~name kinds t =
  let applied =
    List.fold_left
      (fun m k ->
        Kmap.update k
          (fun s ->
            Some (San_set.add name (Option.value s ~default:San_set.empty)))
          m)
      t.sans.applied kinds
  in
  { t with sans = { t.sans with applied } }

(** Revert-function semantics on the sanitizer set: remove exactly the
    sanitizers the revert undoes ([`Named]), or every applied sanitizer when
    its scope is unknown ([`All], e.g. [base64_decode]).  The undone names
    are remembered so {!compose_sans} can replay the effect on caller
    arguments across a function-summary boundary. *)
let revert_named ~undoes t =
  match undoes with
  | `All ->
      {
        t with
        sans =
          { applied = Kmap.empty; undone = t.sans.undone; undone_all = true };
      }
  | `Named names ->
      let rm = San_set.of_list names in
      let applied =
        Kmap.filter_map
          (fun _ s ->
            let s = San_set.diff s rm in
            if San_set.is_empty s then None else Some s)
          t.sans.applied
      in
      {
        t with
        sans =
          {
            applied;
            undone = San_set.union t.sans.undone rm;
            undone_all = t.sans.undone_all;
          };
      }

(** [compose_sans ~outer ~inner] replays the delta [inner] (what a callee
    did to a value, parameters starting from {!no_sans}) on top of [outer]
    (what the caller argument had already been through): the callee's
    reverts strip the caller's applied sanitizers, then the callee's own
    applications are added. *)
let compose_sans ~outer ~inner =
  let strip s =
    if inner.undone_all then San_set.empty else San_set.diff s inner.undone
  in
  let applied =
    Kmap.merge
      (fun _ so si ->
        let s =
          San_set.union
            (strip (Option.value so ~default:San_set.empty))
            (Option.value si ~default:San_set.empty)
        in
        if San_set.is_empty s then None else Some s)
      outer.applied inner.applied
  in
  {
    applied;
    undone = San_set.union outer.undone inner.undone;
    undone_all = outer.undone_all || inner.undone_all;
  }

let push_step ~var ~pos ~note t =
  let step = { Report.step_var = var; step_pos = pos; step_note = note } in
  if List.length t.trace >= max_trace_len then
    (* mark the drop instead of losing it silently *)
    { t with trace_truncated = true }
  else { t with trace = step :: t.trace }

let source_of t =
  match t.source with
  | Some (s, pos) -> (s, pos)
  | None -> (Vuln.Unknown_source, Phplang.Ast.dummy_pos)
