(** Observability subsystem tests: span nesting and ordering, counter-merge
    determinism across pool sizes, well-formedness and shape of the two
    JSON exporters, and the golden guarantee that the evaluation tables are
    byte-identical with observability on or off (modulo the measured
    timings in Table III, which vary run to run). *)

module Cache = Phplang.Project.Parse_cache

let case = Alcotest.test_case

(* Every test drives the global recorder; reset around each one. *)
let with_obs f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

(* ------------------------------------------------------------------ *)
(* Minimal JSON parser, for validating exporter output without a JSON
   dependency.  Accepts exactly the RFC 8259 grammar we emit.          *)
(* ------------------------------------------------------------------ *)

exception Bad_json of string

let parse_json (s : string) : unit =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let parse_string () =
    expect '"';
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
          | Some 'u' ->
              advance ();
              for _ = 1 to 4 do
                match peek () with
                | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
                | _ -> fail "bad \\u escape"
              done
          | _ -> fail "bad escape");
          loop ()
      | Some c when Char.code c < 0x20 -> fail "control char in string"
      | Some _ ->
          advance ();
          loop ()
    in
    loop ()
  in
  let parse_number () =
    let digits () =
      let start = !pos in
      let rec loop () =
        match peek () with
        | Some '0' .. '9' ->
            advance ();
            loop ()
        | _ -> ()
      in
      loop ();
      if !pos = start then fail "expected digits"
    in
    (match peek () with Some '-' -> advance () | _ -> ());
    digits ();
    (match peek () with
    | Some '.' ->
        advance ();
        digits ()
    | _ -> ());
    match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ()
  in
  let literal lit =
    String.iter
      (fun c ->
        match peek () with
        | Some c' when c' = c -> advance ()
        | _ -> fail ("expected " ^ lit))
      lit
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then advance ()
        else
          let rec members () =
            skip_ws ();
            parse_string ();
            skip_ws ();
            expect ':';
            parse_value ();
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ()
            | Some '}' -> advance ()
            | _ -> fail "expected , or }"
          in
          members ()
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then advance ()
        else
          let rec elements () =
            parse_value ();
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements ()
            | Some ']' -> advance ()
            | _ -> fail "expected , or ]"
          in
          elements ()
    | Some '"' -> parse_string ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> parse_number ()
    | _ -> fail "expected a JSON value"
  in
  parse_value ();
  skip_ws ();
  if !pos <> n then fail "trailing garbage"

let check_json what s =
  match parse_json s with
  | () -> ()
  | exception Bad_json msg ->
      Alcotest.failf "%s is not well-formed JSON: %s\n%s" what msg s

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)
(* ------------------------------------------------------------------ *)

let span_cases =
  [
    case "disabled spans are transparent" `Quick (fun () ->
        Obs.set_enabled false;
        Alcotest.(check int) "value" 7 (Obs.span "x" (fun () -> 7));
        Obs.incr "c";
        let s = Obs.snapshot () in
        Alcotest.(check int) "no events" 0 (List.length s.Obs.sn_events);
        Alcotest.(check (option int))
          "a counter incremented while disabled is counted" (Some 1)
          (List.assoc_opt "c" s.Obs.sn_counters));
    case "span nesting, ordering and timing" `Quick (fun () ->
        with_obs (fun () ->
            let r =
              Obs.span "outer" (fun () ->
                  (* lets, not [+]: OCaml evaluates operands right-to-left *)
                  let a = Obs.span "inner1" (fun () -> 3) in
                  let b = Obs.span "inner2" (fun () -> 4) in
                  a + b)
            in
            Alcotest.(check int) "result" 7 r;
            let s = Obs.snapshot () in
            (* completion order: inner1, inner2, outer *)
            Alcotest.(check (list string))
              "completion order"
              [ "inner1"; "inner2"; "outer" ]
              (List.map (fun e -> e.Obs.ev_name) s.Obs.sn_events);
            Alcotest.(check (list int))
              "depths" [ 1; 1; 0 ]
              (List.map (fun e -> e.Obs.ev_depth) s.Obs.sn_events);
            let by_name name =
              List.find (fun e -> e.Obs.ev_name = name) s.Obs.sn_events
            in
            let outer = by_name "outer"
            and inner1 = by_name "inner1"
            and inner2 = by_name "inner2" in
            let ends e = Int64.add e.Obs.ev_start_ns e.Obs.ev_dur_ns in
            Alcotest.(check bool) "inner1 starts within outer" true
              (inner1.Obs.ev_start_ns >= outer.Obs.ev_start_ns);
            Alcotest.(check bool) "inner2 ends within outer" true
              (ends inner2 <= ends outer);
            Alcotest.(check bool) "inner1 before inner2" true
              (ends inner1 <= inner2.Obs.ev_start_ns);
            Alcotest.(check bool) "aggregate total covers both inners" true
              (let agg =
                 List.find (fun a -> a.Obs.sa_name = "outer") s.Obs.sn_spans
               in
               agg.Obs.sa_count = 1
               && agg.Obs.sa_total_ns >= Int64.add inner1.Obs.ev_dur_ns
                    inner2.Obs.ev_dur_ns)));
    case "a raising span still closes" `Quick (fun () ->
        with_obs (fun () ->
            Alcotest.check_raises "re-raised" Exit (fun () ->
                Obs.span "boom" (fun () -> raise Exit));
            (* depth back at 0: the next span records at top level *)
            ignore (Obs.span "after" (fun () -> ()));
            let s = Obs.snapshot () in
            Alcotest.(check (list string))
              "both recorded" [ "boom"; "after" ]
              (List.map (fun e -> e.Obs.ev_name) s.Obs.sn_events);
            Alcotest.(check (list int))
              "both top-level" [ 0; 0 ]
              (List.map (fun e -> e.Obs.ev_depth) s.Obs.sn_events)));
    case "counters and gauges merge into the snapshot" `Quick (fun () ->
        with_obs (fun () ->
            Obs.incr "a";
            Obs.add "a" 2;
            Obs.incr "b";
            Obs.set_gauge "g" 4.5;
            let s = Obs.snapshot () in
            Alcotest.(check (list (pair string int)))
              "counters sorted"
              [ ("a", 3); ("b", 1) ]
              s.Obs.sn_counters;
            Alcotest.(check (list (pair string (float 1e-9))))
              "gauges" [ ("g", 4.5) ] s.Obs.sn_gauges));
  ]

(* ------------------------------------------------------------------ *)
(* Counter registry: any thread counts and reads                      *)
(* ------------------------------------------------------------------ *)

let registry_cases =
  [
    case "systhreads and domains count exactly under a polling reader"
      `Quick (fun () ->
        let name = "test.registry.shared" and per_writer = 10_000 in
        let before = Obs.counter name in
        let write () =
          for _ = 1 to per_writer do
            Obs.incr name
          done
        in
        let stop = Atomic.make false and polls = ref 0 in
        let reader =
          Thread.create
            (fun () ->
              while not (Atomic.get stop) do
                ignore (Obs.counters () : (string * int) list);
                Stdlib.incr polls;
                Thread.yield ()
              done)
            ()
        in
        let threads = List.init 4 (fun _ -> Thread.create write ()) in
        let domains = List.init 2 (fun _ -> Domain.spawn write) in
        List.iter Thread.join threads;
        List.iter Domain.join domains;
        Atomic.set stop true;
        Thread.join reader;
        Alcotest.(check int) "every increment counted" (6 * per_writer)
          (Obs.counter name - before);
        Alcotest.(check (option int))
          "counters agrees with counter"
          (Some (Obs.counter name))
          (List.assoc_opt name (Obs.counters ()));
        Alcotest.(check bool) "the reader polled" true (!polls > 0));
    case "1,000 joined domains each count once" `Quick (fun () ->
        let name = "test.registry.domains" in
        let before = Obs.counter name in
        for _ = 1 to 1_000 do
          Domain.join (Domain.spawn (fun () -> Obs.incr name))
        done;
        Alcotest.(check int) "retired shards keep their counts" 1_000
          (Obs.counter name - before));
  ]

(* ------------------------------------------------------------------ *)
(* Determinism across pool sizes                                      *)
(* ------------------------------------------------------------------ *)

(* Spans and counters recorded under Sched.map depend on the pool size
   (worker count, chunks claimed) — everything else must merge
   identically. *)
let is_sched name =
  String.length name >= 6 && String.sub name 0 6 = "sched."

let non_sched_spans (s : Obs.snapshot) =
  List.filter_map
    (fun a ->
      if is_sched a.Obs.sa_name then None
      else Some (a.Obs.sa_name, a.Obs.sa_count))
    s.Obs.sn_spans

let non_sched_counters (s : Obs.snapshot) =
  List.filter (fun (name, _) -> not (is_sched name)) s.Obs.sn_counters

let measured_evaluation ?pool version =
  Cache.clear Cache.shared;
  Obs.reset ();
  ignore (Evalkit.Runner.evaluate ?pool version);
  Obs.snapshot ()

let determinism_cases =
  [
    case "parallel run merges to the sequential counters" `Quick (fun () ->
        with_obs (fun () ->
            let seq = measured_evaluation Corpus.Plan.V2012 in
            let par =
              measured_evaluation ~pool:(Sched.create ~size:4 ())
                Corpus.Plan.V2012
            in
            Alcotest.(check (list (pair string int)))
              "counters identical at any pool size outside sched.*"
              (non_sched_counters seq) (non_sched_counters par);
            Alcotest.(check (list (pair string int)))
              "span counts identical outside sched.*" (non_sched_spans seq)
              (non_sched_spans par);
            Alcotest.(check bool) "per-domain tracks exist in the parallel run"
              true
              (let module IS = Set.Make (Int) in
               IS.cardinal
                 (List.fold_left
                    (fun acc e -> IS.add e.Obs.ev_domain acc)
                    IS.empty par.Obs.sn_events)
               >= 2)));
  ]

(* ------------------------------------------------------------------ *)
(* Exporters                                                          *)
(* ------------------------------------------------------------------ *)

let exporter_cases =
  [
    case "trace and metrics JSON are well-formed" `Quick (fun () ->
        with_obs (fun () ->
            ignore
              (Phpsafe.analyze_source ~file:"t.php"
                 "<?php function f($x) { echo $x; } f($_GET['q']); echo $_GET['p'];");
            Obs.set_gauge "sched.pool_size" 1.;
            let s = Obs.snapshot () in
            Alcotest.(check bool) "snapshot has events" true
              (s.Obs.sn_events <> []);
            check_json "trace_json" (Obs.trace_json s);
            check_json "metrics_json" (Obs.metrics_json s)));
    case "exporters escape hostile span names" `Quick (fun () ->
        with_obs (fun () ->
            ignore (Obs.span "quote\"back\\slash\ncontrol\x01" (fun () -> ()));
            Obs.incr "counter\twith\ttabs";
            let s = Obs.snapshot () in
            check_json "trace_json" (Obs.trace_json s);
            check_json "metrics_json" (Obs.metrics_json s)));
    case "metrics JSON round-trips with its keys" `Quick (fun () ->
        with_obs (fun () ->
            Obs.set_gauge "sched.pool_size" 2.;
            Obs.add "c" 3;
            ignore (Obs.span "s" (fun () -> ()));
            ignore (Obs.span "s" (fun () -> ()));
            let doc =
              match Json.parse (Obs.metrics_json (Obs.snapshot ())) with
              | Ok doc -> doc
              | Error msg -> Alcotest.fail msg
            in
            let get path =
              List.fold_left
                (fun j k -> Option.bind j (Json.member k))
                (Some doc) path
            in
            Alcotest.(check (list string))
              "top-level keys, in order"
              [ "schema"; "gauges"; "counters"; "spans" ]
              (match doc with
              | Json.Obj fields -> List.map fst fields
              | _ -> []);
            Alcotest.(check (option string))
              "schema" (Some "phpsafe-obs/1")
              (Option.bind (get [ "schema" ]) Json.to_string_opt);
            Alcotest.(check bool)
              "gauge" true
              (get [ "gauges"; "sched.pool_size" ] = Some (Json.Float 2.));
            Alcotest.(check (option int))
              "counter" (Some 3)
              (Option.bind (get [ "counters"; "c" ]) Json.to_int_opt);
            Alcotest.(check (option int))
              "span count" (Some 2)
              (Option.bind (get [ "spans"; "s"; "count" ]) Json.to_int_opt);
            Alcotest.(check bool)
              "span total_s" true
              (match get [ "spans"; "s"; "total_s" ] with
              | Some (Json.Float f) -> f >= 0.
              | Some (Json.Int n) -> n >= 0
              | _ -> false)));
    case "empty snapshot still exports valid JSON" `Quick (fun () ->
        with_obs (fun () ->
            let s = Obs.snapshot () in
            check_json "trace_json" (Obs.trace_json s);
            check_json "metrics_json" (Obs.metrics_json s)));
  ]

(* ------------------------------------------------------------------ *)
(* Golden: tables unchanged by observability                          *)
(* ------------------------------------------------------------------ *)

(* Table III contains measured wall seconds, which legitimately vary from
   run to run; digits on its lines are masked before comparison.  Every
   other table must match byte for byte. *)
let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  at 0

let scrub_timing_section report =
  let lines = String.split_on_char '\n' report in
  let in_table3 = ref false in
  List.map
    (fun line ->
      let is_header =
        String.length line >= 2 && String.sub line 0 2 = "=="
      in
      if is_header then begin
        in_table3 := contains ~needle:"TABLE III" line;
        line
      end
      else if !in_table3 then
        String.map (fun c -> if c >= '0' && c <= '9' then '#' else c) line
      else line)
    lines
  |> String.concat "\n"

let render_report ev2012 ev2014 =
  Format.asprintf "%t" (fun ppf ->
      Evalkit.Tables.full_report ~with_ablation:false ppf ~ev2012 ~ev2014)

let golden_cases =
  [
    case "tables byte-identical with observability on and off" `Quick
      (fun () ->
        Obs.reset ();
        Obs.set_enabled false;
        let pool = Sched.create ~size:2 () in
        let plain =
          let ev12 = Evalkit.Runner.evaluate ~pool Corpus.Plan.V2012 in
          let ev14 = Evalkit.Runner.evaluate ~pool Corpus.Plan.V2014 in
          render_report ev12 ev14
        in
        let traced =
          with_obs (fun () ->
              let ev12 = Evalkit.Runner.evaluate ~pool Corpus.Plan.V2012 in
              let ev14 = Evalkit.Runner.evaluate ~pool Corpus.Plan.V2014 in
              let report = render_report ev12 ev14 in
              (* the exporters must not disturb the report either *)
              let s = Obs.snapshot () in
              ignore (Obs.trace_json s);
              ignore (Obs.metrics_json s);
              report)
        in
        Alcotest.(check string)
          "full report identical (Table III timings masked)"
          (scrub_timing_section plain) (scrub_timing_section traced));
  ]

let () =
  Alcotest.run "obs"
    [
      ("spans", span_cases);
      ("registry", registry_cases);
      ("determinism", determinism_cases);
      ("exporters", exporter_cases);
      ("golden tables", golden_cases);
    ]
