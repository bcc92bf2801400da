(** Taint lattice tests: unit laws for sources, sanitize, revert and the
    dependency machinery, QCheck algebraic properties of [join], and the
    baselines' flag taint ({!Secflow.Baseline}) against a reference
    model. *)

open Secflow
module T = Phpsafe.Taint

let pos = Phplang.Ast.dummy_pos
let xss_src = T.of_source ~kinds:[ Vuln.Xss ] ~source:(Vuln.Superglobal "$_GET") ~pos
let both_src =
  T.of_source ~kinds:[ Vuln.Xss; Vuln.Sqli ] ~source:(Vuln.Superglobal "$_POST") ~pos

let unit_cases =
  [
    Alcotest.test_case "untainted is clean" `Quick (fun () ->
        Alcotest.(check bool) "xss" false (T.is_tainted Vuln.Xss T.untainted);
        Alcotest.(check bool) "sqli" false (T.is_tainted Vuln.Sqli T.untainted);
        Alcotest.(check bool) "not interesting" false (T.interesting T.untainted));
    Alcotest.test_case "source taints its kinds only" `Quick (fun () ->
        Alcotest.(check bool) "xss" true (T.is_tainted Vuln.Xss xss_src);
        Alcotest.(check bool) "sqli" false (T.is_tainted Vuln.Sqli xss_src));
    Alcotest.test_case "sanitize clears a kind" `Quick (fun () ->
        let t = T.sanitize Vuln.Xss both_src in
        Alcotest.(check bool) "xss off" false (T.is_tainted Vuln.Xss t);
        Alcotest.(check bool) "sqli kept" true (T.is_tainted Vuln.Sqli t));
    Alcotest.test_case "revert restores sanitized taint" `Quick (fun () ->
        let t = T.revert (T.sanitize Vuln.Xss xss_src) in
        Alcotest.(check bool) "xss back" true (T.is_tainted Vuln.Xss t));
    Alcotest.test_case "revert on never-tainted is a no-op" `Quick (fun () ->
        let t = T.revert T.untainted in
        Alcotest.(check bool) "still clean" false (T.any_tainted t));
    Alcotest.test_case "sanitize both kinds" `Quick (fun () ->
        let t = T.sanitize_kinds [ Vuln.Xss; Vuln.Sqli ] both_src in
        Alcotest.(check bool) "clean" false (T.any_tainted t);
        let r = T.revert t in
        Alcotest.(check bool) "revert restores both" true
          (T.is_tainted Vuln.Xss r && T.is_tainted Vuln.Sqli r));
    Alcotest.test_case "scrub drops everything" `Quick (fun () ->
        let t = T.scrub both_src in
        Alcotest.(check bool) "clean" false (T.interesting t));
    Alcotest.test_case "param deps flow through join" `Quick (fun () ->
        let t = T.join (T.of_param 0) (T.of_param 2) in
        Alcotest.(check int) "two deps" 2 (T.Int_set.cardinal (T.deps Vuln.Xss t));
        Alcotest.(check bool) "interesting" true (T.interesting t);
        Alcotest.(check bool) "not concretely tainted" false (T.any_tainted t));
    Alcotest.test_case "sanitize clears deps for that kind" `Quick (fun () ->
        let t = T.sanitize Vuln.Xss (T.of_param 1) in
        Alcotest.(check bool) "xss deps gone" true
          (T.Int_set.is_empty (T.deps Vuln.Xss t));
        Alcotest.(check bool) "sqli deps kept" false
          (T.Int_set.is_empty (T.deps Vuln.Sqli t)));
    Alcotest.test_case "revert restores deps" `Quick (fun () ->
        let t = T.revert (T.sanitize Vuln.Xss (T.of_param 1)) in
        Alcotest.(check bool) "deps back" false
          (T.Int_set.is_empty (T.deps Vuln.Xss t)));
    Alcotest.test_case "join keeps first source" `Quick (fun () ->
        let j = T.join xss_src both_src in
        let src, _ = T.source_of j in
        Alcotest.(check string) "source" "$_GET" (Vuln.source_to_string src));
    Alcotest.test_case "trace is bounded" `Quick (fun () ->
        let t = ref xss_src in
        for i = 1 to 50 do
          t := T.push_step !t ~var:(Printf.sprintf "$v%d" i) ~pos ~note:"hop"
        done;
        Alcotest.(check bool) "bounded" true
          (List.length !t.T.trace <= T.max_trace_len));
    Alcotest.test_case "truncation is marked, not silent" `Quick (fun () ->
        let t = ref xss_src in
        for i = 1 to T.max_trace_len + 5 do
          t := T.push_step !t ~var:(Printf.sprintf "$v%d" i) ~pos ~note:"hop"
        done;
        Alcotest.(check bool) "flag set at the cap" true !t.T.trace_truncated;
        let short =
          T.push_step xss_src ~var:"$v" ~pos ~note:"hop"
        in
        Alcotest.(check bool) "short trace unflagged" false
          short.T.trace_truncated);
    Alcotest.test_case "join carries the truncation flag with the trace" `Quick
      (fun () ->
        let long = ref xss_src in
        for i = 1 to T.max_trace_len + 1 do
          long := T.push_step !long ~var:(Printf.sprintf "$v%d" i) ~pos ~note:"hop"
        done;
        let j = T.join !long T.untainted in
        Alcotest.(check bool) "tainted side leads" true j.T.trace_truncated);
  ]

(* -- sanitizer-set tracking (context pass, --contexts) --------------- *)

let names set = T.San_set.elements set

(* [sans]-level applied set for one kind (the record stores a Kmap). *)
let sans_applied k (s : T.sans) =
  match T.Kmap.find_opt k s.T.applied with
  | Some set -> set
  | None -> T.San_set.empty

let sans_cases =
  [
    Alcotest.test_case "record_sanitizer keeps taint live" `Quick (fun () ->
        let t = T.record_sanitizer ~name:"htmlspecialchars" [ Vuln.Xss ] xss_src in
        Alcotest.(check bool) "still live" true (T.is_tainted Vuln.Xss t);
        Alcotest.(check (list string)) "applied xss" [ "htmlspecialchars" ]
          (names (T.applied Vuln.Xss t));
        Alcotest.(check (list string)) "sqli untouched" []
          (names (T.applied Vuln.Sqli t)));
    Alcotest.test_case "revert_named removes exactly the named set" `Quick
      (fun () ->
        let t =
          both_src
          |> T.record_sanitizer ~name:"htmlspecialchars" [ Vuln.Xss ]
          |> T.record_sanitizer ~name:"addslashes" [ Vuln.Sqli ]
          |> T.revert_named ~undoes:(`Named [ "addslashes"; "esc_sql" ])
        in
        Alcotest.(check (list string)) "xss applied survives"
          [ "htmlspecialchars" ]
          (names (T.applied Vuln.Xss t));
        Alcotest.(check (list string)) "sqli applied cleared" []
          (names (T.applied Vuln.Sqli t)));
    Alcotest.test_case "revert_named `All clears every applied set" `Quick
      (fun () ->
        let t =
          both_src
          |> T.record_sanitizer ~name:"htmlspecialchars" [ Vuln.Xss ]
          |> T.record_sanitizer ~name:"addslashes" [ Vuln.Sqli ]
          |> T.revert_named ~undoes:`All
        in
        Alcotest.(check (list string)) "xss empty" []
          (names (T.applied Vuln.Xss t));
        Alcotest.(check (list string)) "sqli empty" []
          (names (T.applied Vuln.Sqli t));
        Alcotest.(check bool) "undone_all" true t.T.sans.T.undone_all);
    Alcotest.test_case "compose_sans replays the callee delta" `Quick
      (fun () ->
        (* caller arg passed through htmlspecialchars; callee stripslashed it
           and applied intval *)
        let outer =
          (T.record_sanitizer ~name:"htmlspecialchars" [ Vuln.Xss ] xss_src)
            .T.sans
        in
        let inner =
          (T.of_param 0
          |> T.revert_named ~undoes:(`Named [ "htmlspecialchars" ])
          |> T.record_sanitizer ~name:"intval" [ Vuln.Xss ])
            .T.sans
        in
        let composed = T.compose_sans ~outer ~inner in
        Alcotest.(check (list string)) "stripped then applied" [ "intval" ]
          (T.San_set.elements (sans_applied Vuln.Xss composed)));
    Alcotest.test_case "compose_sans with undone_all strips everything" `Quick
      (fun () ->
        let outer =
          (T.record_sanitizer ~name:"htmlspecialchars" [ Vuln.Xss ] xss_src)
            .T.sans
        in
        let inner = (T.revert_named ~undoes:`All (T.of_param 0)).T.sans in
        let composed = T.compose_sans ~outer ~inner in
        Alcotest.(check (list string)) "empty" []
          (T.San_set.elements (sans_applied Vuln.Xss composed)));
    Alcotest.test_case "join intersects applied sets of relevant sides" `Quick
      (fun () ->
        let a =
          xss_src
          |> T.record_sanitizer ~name:"htmlspecialchars" [ Vuln.Xss ]
          |> T.record_sanitizer ~name:"intval" [ Vuln.Xss ]
        in
        let b = T.record_sanitizer ~name:"intval" [ Vuln.Xss ] xss_src in
        Alcotest.(check (list string)) "intersection" [ "intval" ]
          (names (T.applied Vuln.Xss (T.join a b))));
    Alcotest.test_case "join ignores an irrelevant side's empty set" `Quick
      (fun () ->
        let a = T.record_sanitizer ~name:"htmlspecialchars" [ Vuln.Xss ] xss_src in
        Alcotest.(check (list string)) "kept" [ "htmlspecialchars" ]
          (names (T.applied Vuln.Xss (T.join a T.untainted)));
        Alcotest.(check (list string)) "kept (sym)" [ "htmlspecialchars" ]
          (names (T.applied Vuln.Xss (T.join T.untainted a))));
  ]

(* -- QCheck: join is a semilattice on the flag component ------------- *)

open QCheck2

(* A sanitizer set drawn from a small pool of names. *)
let gen_san_set : T.San_set.t Gen.t =
  let open Gen in
  let+ picks = list_repeat 3 bool in
  List.fold_left2
    (fun s keep name -> if keep then T.San_set.add name s else s)
    T.San_set.empty picks [ "esc_html"; "htmlspecialchars"; "intval" ]

(* Canonical taint values over XSS and SQLi.  A component's parameter
   dependency is optional, so a kind may be irrelevant (neither live nor
   dependent); applied sanitizer sets are drawn for both kinds and for
   command injection, which never has a component — [join] must drop the
   sets of irrelevant kinds. *)
let gen_taint : T.t Gen.t =
  let open Gen in
  let* xss = bool and* sqli = bool and* wx = bool and* ws = bool in
  let* d1 = opt (int_bound 3) and* d2 = opt (int_bound 3) in
  let* sanitized = bool in
  let* sx = gen_san_set and* ss = gen_san_set and* sc = gen_san_set in
  let add kind live was dep m =
    let deps =
      match dep with Some d -> T.Int_set.singleton d | None -> T.Int_set.empty
    in
    if live || was || not (T.Int_set.is_empty deps) then
      T.Kmap.add kind { T.live; was; deps; was_deps = T.Int_set.empty } m
    else m
  in
  let comps =
    T.Kmap.empty |> add Vuln.Xss xss wx d1 |> add Vuln.Sqli sqli ws d2
  in
  let add_set kind s m = if T.San_set.is_empty s then m else T.Kmap.add kind s m in
  let applied =
    T.Kmap.empty
    |> add_set Vuln.Xss sx |> add_set Vuln.Sqli ss |> add_set Vuln.Cmdi sc
  in
  let base = { T.untainted with T.comps; sans = { T.no_sans with T.applied } } in
  return (if sanitized then T.sanitize Vuln.Xss base else base)

(* Everything [join] and [equal_modulo_trace] look at, as plain data. *)
let observe (t : T.t) =
  ( T.Kmap.bindings t.T.comps
    |> List.map (fun (k, (c : T.comp)) ->
           ( Vuln.kind_to_string k, c.T.live, c.T.was,
             T.Int_set.elements c.T.deps, T.Int_set.elements c.T.was_deps )),
    ( T.Kmap.bindings t.T.sans.T.applied
      |> List.map (fun (k, s) -> (Vuln.kind_to_string k, names s)),
      names t.T.sans.T.undone,
      t.T.sans.T.undone_all ),
    t.T.source )

(* A structural copy of [t] that is not physically equal to it. *)
let copy (t : T.t) = { t with T.comps = t.T.comps }

let flags t =
  let cx = T.comp Vuln.Xss t and cs = T.comp Vuln.Sqli t in
  ( cx.T.live, cs.T.live, cx.T.was, cs.T.was,
    T.Int_set.elements cx.T.deps, T.Int_set.elements cs.T.deps )

let props =
  [
    Test.make ~name:"join commutes (flags)" ~count:300
      (Gen.pair gen_taint gen_taint)
      (fun (a, b) -> flags (T.join a b) = flags (T.join b a));
    Test.make ~name:"join associates (flags)" ~count:300
      (Gen.triple gen_taint gen_taint gen_taint)
      (fun (a, b, c) ->
        flags (T.join a (T.join b c)) = flags (T.join (T.join a b) c));
    Test.make ~name:"join is idempotent" ~count:300 gen_taint (fun a ->
        flags (T.join a a) = flags a);
    Test.make ~name:"untainted is identity for join" ~count:300 gen_taint
      (fun a -> flags (T.join a T.untainted) = flags a);
    Test.make ~name:"sanitize then revert restores live taint" ~count:300
      gen_taint (fun a ->
        let restored = T.revert (T.sanitize Vuln.Xss a) in
        (* revert may only grow the taint: everything live before is live after *)
        (not (T.is_tainted Vuln.Xss a)) || T.is_tainted Vuln.Xss restored);
    Test.make ~name:"sanitize is idempotent" ~count:300 gen_taint (fun a ->
        flags (T.sanitize Vuln.Xss (T.sanitize Vuln.Xss a))
        = flags (T.sanitize Vuln.Xss a));
    Test.make ~name:"join monotone wrt taintedness" ~count:300
      (Gen.pair gen_taint gen_taint)
      (fun (a, b) ->
        let j = T.join a b in
        (T.is_tainted Vuln.Xss a || T.is_tainted Vuln.Xss b)
        = T.is_tainted Vuln.Xss j);
    (* [join a a] may return [a] itself; it must agree with the join of two
       structurally equal but distinct values, which takes the full path *)
    Test.make ~name:"join a a agrees with join of a copy" ~count:500 gen_taint
      (fun a ->
        let a' = copy a in
        a' != a && observe (T.join a a) = observe (T.join a a'));
    Test.make ~name:"equal_modulo_trace is reflexive" ~count:300 gen_taint
      (fun a -> T.equal_modulo_trace a a && T.equal_modulo_trace a (copy a));
  ]

(* -- QCheck: the baselines' flag taint against a kind-set model -------- *)

module B = Baseline

module Kset = Set.Make (struct
  type t = Vuln.kind

  let compare = Vuln.compare_kind
end)

(* A taint computation: sources are numbered, and source [i] sits on
   line [i]. *)
type op =
  | Clean
  | Src of Vuln.kind list * int
  | Join of op * op
  | San of Vuln.kind list * op
  | Rev of op

let gen_op : op Gen.t =
  let open Gen in
  let kinds = list_size (int_bound 3) (oneofl Vuln.all_kinds) in
  let src = map2 (fun ks i -> Src (ks, i)) kinds (int_bound 3) in
  sized_size (int_bound 12)
  @@ fix (fun self n ->
         if n <= 0 then frequency [ (1, return Clean); (3, src) ]
         else
           frequency
             [ (1, return Clean); (2, src);
               (3, map2 (fun a b -> Join (a, b)) (self (n / 2)) (self (n / 2)));
               (2, map2 (fun ks a -> San (ks, a)) kinds (self (n - 1)));
               (2, map (fun a -> Rev a) (self (n - 1))) ])

let source_of i = Vuln.Superglobal (Printf.sprintf "$_GET%d" i)

let rec run = function
  | Clean -> B.clean
  | Src (ks, i) ->
      B.of_source ks (source_of i) { Phplang.Ast.dummy_pos with line = i }
  | Join (a, b) -> B.join (run a) (run b)
  | San (ks, a) -> B.sanitize ks (run a)
  | Rev a -> B.revert (run a)

(* live kinds, sanitized-away kinds, and the first source joined in *)
let rec model = function
  | Clean -> (Kset.empty, Kset.empty, None)
  | Src (ks, i) -> (Kset.of_list ks, Kset.empty, Some i)
  | Join (a, b) ->
      let la, wa, sa = model a and lb, wb, sb = model b in
      (Kset.union la lb, Kset.union wa wb, if sa = None then sb else sa)
  | San (ks, a) ->
      let l, w, s = model a and ks = Kset.of_list ks in
      (Kset.diff l ks, Kset.union w (Kset.inter l ks), s)
  | Rev a ->
      let l, w, s = model a in
      (Kset.union l w, w, s)

let kinds_of mask =
  List.filter (fun k -> mask land B.bit k <> 0) Vuln.all_kinds

let baseline_props =
  [
    Test.make ~name:"flag taint agrees with the kind-set model" ~count:1000
      gen_op (fun op ->
        let t = run op and live, was, src = model op in
        kinds_of t.B.live = Kset.elements live
        && kinds_of t.B.was = Kset.elements was
        && t.B.source = Option.map source_of src
        && Option.map (fun p -> p.Phplang.Ast.line) t.B.source_pos = src
        && List.for_all
             (fun k -> B.is_tainted k t = Kset.mem k live)
             Vuln.all_kinds);
  ]

let () =
  Alcotest.run "taint"
    [ ("laws", unit_cases);
      ("sanitizer sets (--contexts)", sans_cases);
      ("qcheck semilattice", List.map QCheck_alcotest.to_alcotest props);
      ( "qcheck baseline flag taint",
        List.map QCheck_alcotest.to_alcotest baseline_props ) ]
