(** RIPS taint values: a set of live vulnerability kinds plus the revert
    bookkeeping RIPS's "secure and unsecure PHP built-in functions" model
    needs.  Simpler than phpSAFE's {!Phpsafe.Taint} — RIPS's backward
    analysis carries no parameter dependency sets, because parameters are
    resolved by walking to the call sites instead. *)

open Secflow

module Kset = Set.Make (struct
  type t = Vuln.kind

  let compare = Vuln.compare_kind
end)

type t = {
  live : Kset.t;  (** kinds the value is currently tainted for *)
  was : Kset.t;  (** kinds sanitized away, revivable by a revert *)
  source : Vuln.source option;
  source_pos : Phplang.Ast.pos option;
}

let clean =
  { live = Kset.empty; was = Kset.empty; source = None; source_pos = None }

let of_source kinds source pos =
  { clean with
    live = Kset.of_list kinds;
    source = Some source;
    source_pos = Some pos }

let is_tainted kind t = Kset.mem kind t.live

let join a b =
  { live = Kset.union a.live b.live;
    was = Kset.union a.was b.was;
    source = (match a.source with Some _ -> a.source | None -> b.source);
    source_pos = (match a.source with Some _ -> a.source_pos | None -> b.source_pos) }

let join_all = List.fold_left join clean

let sanitize kinds t =
  let ks = Kset.of_list kinds in
  { t with
    live = Kset.diff t.live ks;
    was = Kset.union t.was (Kset.inter t.live ks) }

let revert t = { t with live = Kset.union t.live t.was }
