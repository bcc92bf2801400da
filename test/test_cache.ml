(** Persistent cache tests: warm runs must reproduce cold results
    byte-identically (RIPS and Pixy replay per-file results, phpSAFE
    re-analyzes over stored parses), invalidation must be exact (edited
    file, edited callee, profile switch, [--contexts], the per-analyzer
    [--budget-*] slices), corrupt or mismatched entries must read as
    misses, and a shared cache directory must be transparent at any pool
    size. *)

module Store = Phplang.Store

(* ------------------------------------------------------------------ *)
(* Helpers                                                            *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let dir_seq = ref 0

(* Fresh cache directory and parse memo for the duration of [f], as in a
   new process; the store is always disabled again afterwards (tests must
   not leak a root into each other). *)
let with_cache_dir f =
  Phplang.Project.Parse_cache.clear Phplang.Project.Parse_cache.shared;
  incr dir_seq;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "phpsafe-test-cache-%d-%d" (Unix.getpid ()) !dir_seq)
  in
  rm_rf dir;
  Sys.mkdir dir 0o755;
  Store.set_root (Some dir);
  Fun.protect
    ~finally:(fun () ->
      Store.set_root None;
      rm_rf dir)
    (fun () -> f dir)

let project name files =
  Phplang.Project.make ~name
    (List.map (fun (path, source) -> { Phplang.Project.path; source }) files)

let ns_stats ns =
  match
    List.find_opt
      (fun (s : Store.stats) -> String.equal s.Store.ns ns)
      (Store.counters ())
  with
  | Some s -> (s.Store.hits, s.Store.misses)
  | None -> (0, 0)

let result_stats () = ns_stats "result"

(* Result-cache hits/misses attributable to [f] alone. *)
let result_delta f =
  let h0, m0 = result_stats () in
  let v = f () in
  let h1, m1 = result_stats () in
  (v, h1 - h0, m1 - m0)

(* Parse-namespace hits/misses attributable to [f] alone, run against a
   cleared parse memo so that every parse goes to the store. *)
let parse_delta f =
  Phplang.Project.Parse_cache.clear Phplang.Project.Parse_cache.shared;
  let h0, m0 = ns_stats "parse" in
  let v = f () in
  let h1, m1 = ns_stats "parse" in
  (v, h1 - h0, m1 - m0)

let tools : Secflow.Tool.t list = [ Phpsafe.tool; Rips.tool; Pixy.tool ]

(* The store traffic of a warm run of [tool]: phpSAFE caches only parses,
   RIPS and Pixy cache per-file results. *)
let replay_delta (tool : Secflow.Tool.t) f =
  if String.equal tool.Secflow.Tool.name Phpsafe.tool.Secflow.Tool.name then
    parse_delta f
  else result_delta f

let vuln_file path =
  (path, Printf.sprintf "<?php\n$x = $_GET['%s'];\necho $x;\n" path)

let check_result = Alcotest.testable (fun ppf _ -> Fmt.string ppf "<result>")
    (fun (a : Secflow.Report.result) b -> a = b)

let case = Alcotest.test_case

(* ------------------------------------------------------------------ *)
(* Warm replay                                                        *)
(* ------------------------------------------------------------------ *)

let replay_cases =
  List.map
    (fun (tool : Secflow.Tool.t) ->
      case (tool.Secflow.Tool.name ^ ": warm run replays cold results") `Quick
        (fun () ->
          with_cache_dir @@ fun _dir ->
          let p = project "warm" [ vuln_file "a.php"; vuln_file "b.php" ] in
          let run () = tool.Secflow.Tool.analyze_project p in
          let cold, _, cold_misses = replay_delta tool run in
          let warm, warm_hits, warm_misses = replay_delta tool run in
          Alcotest.check check_result "identical results" cold warm;
          Alcotest.(check bool) "cold run missed" true (cold_misses > 0);
          Alcotest.(check bool) "warm run replayed" true (warm_hits > 0);
          Alcotest.(check int) "warm run fully cached" 0 warm_misses))
    tools

(* ------------------------------------------------------------------ *)
(* Exact invalidation                                                 *)
(* ------------------------------------------------------------------ *)

let edited_file_case =
  case "editing a file invalidates exactly that file" `Quick (fun () ->
      with_cache_dir @@ fun _dir ->
      let p1 = project "edit" [ vuln_file "a.php"; vuln_file "b.php" ] in
      ignore (Rips.tool.Secflow.Tool.analyze_project p1);
      (* b.php gains a line, moving its sink *)
      let p2 =
        project "edit"
          [ vuln_file "a.php";
            ("b.php", "<?php\n$pad = 1;\n$x = $_GET['b.php'];\necho $x;\n") ]
      in
      let r2, hits, misses =
        result_delta (fun () -> Rips.tool.Secflow.Tool.analyze_project p2)
      in
      Alcotest.(check int) "unchanged a.php replayed" 1 hits;
      Alcotest.(check int) "edited b.php re-analyzed" 1 misses;
      Alcotest.(check bool) "new sink line reported" true
        (List.exists
           (fun (f : Secflow.Report.finding) ->
             f.Secflow.Report.sink_pos.Phplang.Ast.line = 4
             && String.equal f.Secflow.Report.sink_pos.Phplang.Ast.file "b.php")
           r2.Secflow.Report.findings))

let edited_callee_case =
  case "editing an included callee invalidates the includer" `Quick (fun () ->
      with_cache_dir @@ fun _dir ->
      let main body =
        ("main.php",
         "<?php\ninclude 'lib.php';\necho clean($_GET['q']);\n" ^ body)
      in
      let lib body = ("lib.php", "<?php\nfunction clean($x) { " ^ body ^ " }\n") in
      let p1 = project "callee" [ main ""; lib "return $x;" ] in
      let r1 = Phpsafe.tool.Secflow.Tool.analyze_project p1 in
      Alcotest.(check bool) "passthrough callee leaks taint" true
        (r1.Secflow.Report.findings <> []);
      (* only lib.php changes; main.php's bytes are untouched, so its
         parse is reused, but its analysis must see the edited callee *)
      let p2 = project "callee" [ main ""; lib "return htmlspecialchars($x);" ] in
      let r2, hits, misses =
        parse_delta (fun () -> Phpsafe.tool.Secflow.Tool.analyze_project p2)
      in
      Alcotest.(check bool) "sanitizing callee silences the sink" true
        (r2.Secflow.Report.findings = []);
      Alcotest.(check int) "includer's parse reused" 1 hits;
      Alcotest.(check int) "edited callee re-parsed" 1 misses;
      let r3, hits3, misses3 =
        parse_delta (fun () -> Phpsafe.tool.Secflow.Tool.analyze_project p2)
      in
      Alcotest.check check_result "edited project replays warm" r2 r3;
      Alcotest.(check int) "second run reuses both parses" 2 hits3;
      Alcotest.(check int) "second run fully cached" 0 misses3)

(* Run [p] under [opts] over a cache directory earlier runs populated: the
   report must equal a store-off run's, and [p]'s one parse must come from
   the store — a parse does not depend on the analysis options. *)
let warm_matches_uncached ~dir ?opts p =
  let warm, hits, misses =
    parse_delta (fun () -> Phpsafe.analyze_project ?opts p)
  in
  Store.set_root None;
  let uncached = Phpsafe.analyze_project ?opts p in
  Store.set_root (Some dir);
  Alcotest.check check_result "warm report = uncached report" uncached warm;
  Alcotest.(check (pair int int)) "parse reused" (1, 0) (hits, misses)

let opts_cases =
  let p () = project "opts" [ vuln_file "a.php" ] in
  [
    case "profile switch re-analyzes over reused parses" `Quick (fun () ->
        with_cache_dir @@ fun dir ->
        ignore (Phpsafe.analyze_project (p ()));
        let drupal =
          { Phpsafe.default_options with
            Phpsafe.config = Phpsafe.Drupal.default_config }
        in
        warm_matches_uncached ~dir ~opts:drupal (p ());
        warm_matches_uncached ~dir ~opts:drupal (p ()));
    case "--contexts toggle re-analyzes over reused parses" `Quick (fun () ->
        with_cache_dir @@ fun dir ->
        ignore (Phpsafe.analyze_project (p ()));
        let ctx =
          { Phpsafe.default_options with Phpsafe.infer_contexts = true }
        in
        warm_matches_uncached ~dir ~opts:ctx (p ()));
    case "--flow toggle re-analyzes over reused parses" `Quick (fun () ->
        with_cache_dir @@ fun dir ->
        ignore (Phpsafe.analyze_project (p ()));
        let flow =
          { Phpsafe.default_options with Phpsafe.flow_sensitive = true }
        in
        warm_matches_uncached ~dir ~opts:flow (p ());
        warm_matches_uncached ~dir ~opts:flow (p ()));
    case "fixpoint cap change under --flow matches an uncached run" `Quick
      (fun () ->
        (* the flow walk consults [fixpoint_passes]; the parse key covers
           only the nesting limit, so the parse is still reused *)
        with_cache_dir @@ fun dir ->
        let d = Secflow.Budget.default in
        Fun.protect ~finally:Secflow.Budget.reset @@ fun () ->
        Secflow.Budget.set d;
        let flow =
          { Phpsafe.default_options with Phpsafe.flow_sensitive = true }
        in
        ignore (Phpsafe.analyze_project ~opts:flow (p ()));
        Secflow.Budget.set
          { d with
            Secflow.Budget.fixpoint_passes = d.Secflow.Budget.fixpoint_passes + 1
          };
        warm_matches_uncached ~dir ~opts:flow (p ()));
  ]

(* A [--flow] walk that runs out of fixpoint passes marks its file
   budget-exhausted — the entry file, or the file defining the function
   being summarised.  Warm runs must report the same outcomes, before and
   after an edit to one of the two files. *)
let exhaustion_case =
  case "--flow pass-budget exhaustion replays warm" `Quick (fun () ->
      with_cache_dir @@ fun dir ->
      let d = Secflow.Budget.default in
      Fun.protect ~finally:Secflow.Budget.reset @@ fun () ->
      Secflow.Budget.set { d with Secflow.Budget.fixpoint_passes = 3 };
      let flow = { Phpsafe.default_options with Phpsafe.flow_sensitive = true } in
      (* a 12-step chain in a loop: far more than 3 passes to converge *)
      let chain src =
        "while ($k) {\n"
        ^ String.concat ""
            (List.init 12 (fun i ->
                 Printf.sprintf "$a%d = $a%d;\n" (12 - i) (11 - i)))
        ^ "$a0 = " ^ src ^ ";\n}\n"
      in
      let main pad =
        ( "main.php",
          "<?php\n" ^ pad ^ "echo $_GET['z'];\necho f($_GET['x']);\n"
          ^ chain "$_GET['y']" ^ "echo $a12;\n" )
      in
      let lib =
        ("lib.php", "<?php\nfunction f($p) {\n" ^ chain "$p" ^ "return $a12;\n}\n")
      in
      let status (r : Secflow.Report.result) path =
        match List.assoc_opt path r.Secflow.Report.outcomes with
        | Some Secflow.Report.Analyzed -> "analyzed"
        | Some (Secflow.Report.Failed reason) -> Secflow.Report.failure_label reason
        | None -> "missing"
      in
      let check_exhausted what r =
        Alcotest.(check (list string)) what
          [ "budget_exhausted"; "budget_exhausted" ]
          [ status r "main.php"; status r "lib.php" ]
      in
      let p1 = project "exhaust" [ main ""; lib ] in
      let cold = Phpsafe.analyze_project ~opts:flow p1 in
      check_exhausted "cold" cold;
      Alcotest.(check int) "entry findings kept" 1
        (List.length cold.Secflow.Report.findings);
      let warm, hits, misses =
        parse_delta (fun () -> Phpsafe.analyze_project ~opts:flow p1)
      in
      Alcotest.check check_result "warm replays the outcomes" cold warm;
      Alcotest.(check int) "warm run reused both parses" 2 hits;
      Alcotest.(check int) "warm run fully cached" 0 misses;
      (* only main.php changes: it alone is re-parsed *)
      let p2 = project "exhaust" [ main "$pad = 1;\n"; lib ] in
      let edited, hits, misses =
        parse_delta (fun () -> Phpsafe.analyze_project ~opts:flow p2)
      in
      Alcotest.(check (pair int int)) "lib.php's parse reused" (1, 1)
        (hits, misses);
      check_exhausted "edited" edited;
      Store.set_root None;
      let uncached = Phpsafe.analyze_project ~opts:flow p2 in
      Store.set_root (Some dir);
      Alcotest.check check_result "edited run matches an uncached run"
        uncached edited)

(* Analyze [before] cold into a fresh cache, then [after] warm over the same
   cache: the warm report must be byte-identical to an uncached run of
   [after]'s bytes, which reports [expect] findings. *)
let cold_edit_warm ~expect before after =
  with_cache_dir @@ fun dir ->
  ignore (Phpsafe.analyze_project (project "edit" before) : Secflow.Report.result);
  let warm = Phpsafe.analyze_project (project "edit" after) in
  Store.set_root None;
  let uncached = Phpsafe.analyze_project (project "edit" after) in
  Store.set_root (Some dir);
  Alcotest.(check int) "uncached findings" expect
    (List.length uncached.Secflow.Report.findings);
  Alcotest.(check string) "warm report = uncached report"
    (Secflow.Report.to_json uncached) (Secflow.Report.to_json warm)

(* Which functions count as called depends on every file's walk, not only
   on the edited one. *)
let uncalled_status_case =
  case "a function that loses its only caller is analyzed as uncalled" `Quick
    (fun () ->
      let a = ("a.php", "<?php\nfunction f($x) { echo $_GET[\"y\"]; }\n") in
      cold_edit_warm ~expect:1
        [ a; ("b.php", "<?php\nf(1);\n") ]
        [ a; ("b.php", "<?php\necho 1;\n") ])

(* A finding an earlier file reported first still belongs to the later
   file once the earlier one stops reporting it. *)
let pre_dedup_case =
  case "a finding two files share survives the first one's edit" `Quick
    (fun () ->
      (* the shared finding sits in a function both files call ... *)
      let lib = ("lib.php", "<?php\nfunction show() { echo $_GET[\"x\"]; }\n") in
      let caller = "<?php\ninclude \"lib.php\";\nshow();\n" in
      cold_edit_warm ~expect:1
        [ ("a.php", caller); ("b.php", caller); lib ]
        [ ("a.php", "<?php\ninclude \"lib.php\";\n"); ("b.php", caller); lib ];
      (* ... or in the top level of a file both include *)
      let lib = ("lib.php", "<?php\necho $_GET[\"x\"];\n") in
      let includer = "<?php\ninclude \"lib.php\";\n" in
      cold_edit_warm ~expect:1
        [ ("a.php", includer); ("b.php", includer); lib ]
        [ ("a.php", "<?php\necho 1;\n"); ("b.php", includer); lib ])

(* A summary built against one version of a function must not survive
   the function's edit: b.php's walk builds foo's summary, and b.php does
   not include a.php, where foo is defined. *)
let stale_summary_case =
  case "a summary does not outlive its function's edit" `Quick (fun () ->
      let a echo =
        ("a.php", Printf.sprintf "<?php\nfunction foo($x) { echo %s; }\n" echo)
      in
      let b = ("b.php", "<?php\nfoo($_GET['q']);\n") in
      let c call = ("c.php", "<?php\ninclude 'a.php';\n" ^ call) in
      let final = [ a "$x"; b; c "foo($_GET['r']);\n" ] in
      let run files = Phpsafe.analyze_project (project "stale" files) in
      with_cache_dir @@ fun dir ->
      ignore (run [ a "htmlspecialchars($x)"; b; c "" ] : Secflow.Report.result);
      ignore (run [ a "$x"; b; c "" ] : Secflow.Report.result);
      let warm = run final in
      Store.set_root None;
      let uncached = run final in
      Store.set_root (Some dir);
      let occurrences (r : Secflow.Report.result) =
        List.map
          (fun (f : Secflow.Report.finding) ->
            Printf.sprintf "%s:%d %s(%s)" f.Secflow.Report.sink_pos.file
              f.sink_pos.line f.sink f.variable)
          r.Secflow.Report.findings
        |> List.sort String.compare
      in
      Alcotest.(check (list string)) "uncached occurrences" [ "a.php:2 echo($x)" ]
        (occurrences uncached);
      Alcotest.(check string) "warm report = uncached report"
        (Secflow.Report.to_json uncached) (Secflow.Report.to_json warm))

(* Two cross-file edits that a warm run must see although neither file
   includes the other: a call into the edited file, and a global it
   writes. *)
let cross_file_cases =
  [
    case "a call into an un-included file sees the edited callee" `Quick
      (fun () ->
        let a echo =
          ("a.php", Printf.sprintf "<?php\nfunction foo($x) { echo %s; }\n" echo)
        in
        let b = ("b.php", "<?php\nfoo($_GET[\"q\"]);\n") in
        cold_edit_warm ~expect:1 [ a "htmlspecialchars($x)"; b ] [ a "$x"; b ]);
    case "a global read across files sees the edited write" `Quick
      (fun () ->
        let b = ("b.php", "<?php\necho $g;\n") in
        cold_edit_warm ~expect:1
          [ ("a.php", "<?php\n$g = \"safe\";\n"); b ]
          [ ("a.php", "<?php\n$g = $_GET[\"x\"];\n"); b ]);
  ]

(* --budget-* invalidation is per analyzer: only the tools whose key covers
   the changed Budget slice may miss. *)
let budget_case =
  case "budget knobs invalidate only the analyzers that consult them" `Quick
    (fun () ->
      with_cache_dir @@ fun _dir ->
      let p = project "budget" [ vuln_file "a.php" ] in
      let d = Secflow.Budget.default in
      Fun.protect ~finally:Secflow.Budget.reset @@ fun () ->
      Secflow.Budget.set d;
      List.iter
        (fun (t : Secflow.Tool.t) -> ignore (t.Secflow.Tool.analyze_project p))
        [ Rips.tool; Pixy.tool ];
      let hits_for tool =
        let _, hits, _ =
          result_delta (fun () ->
              (tool : Secflow.Tool.t).Secflow.Tool.analyze_project p)
        in
        hits
      in
      (* fixpoint passes: Pixy's slice only *)
      Secflow.Budget.set
        { d with Secflow.Budget.fixpoint_passes = d.Secflow.Budget.fixpoint_passes + 1 };
      Alcotest.(check bool) "RIPS unaffected by fixpoint cap" true
        (hits_for Rips.tool > 0);
      Alcotest.(check int) "Pixy misses on fixpoint cap" 0 (hits_for Pixy.tool);
      (* include caps: neither RIPS's slice nor Pixy's *)
      Secflow.Budget.set
        { d with Secflow.Budget.include_depth = d.Secflow.Budget.include_depth + 1 };
      Alcotest.(check bool) "RIPS unaffected by include cap" true
        (hits_for Rips.tool > 0);
      Alcotest.(check bool) "Pixy unaffected by include cap" true
        (hits_for Pixy.tool > 0))

(* ------------------------------------------------------------------ *)
(* Corruption safety                                                  *)
(* ------------------------------------------------------------------ *)

let rec walk_files path acc =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc e -> walk_files (Filename.concat path e) acc)
      acc (Sys.readdir path)
  else path :: acc

let overwrite path bytes =
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc

let corruption_cases =
  [
    case "corrupt and truncated entries are misses, never errors" `Quick
      (fun () ->
        with_cache_dir @@ fun dir ->
        let p = project "corrupt" [ vuln_file "a.php"; vuln_file "b.php" ] in
        let cold = Rips.tool.Secflow.Tool.analyze_project p in
        let files = walk_files dir [] in
        Alcotest.(check bool) "cold run persisted entries" true (files <> []);
        List.iteri
          (fun i f -> overwrite f (if i mod 2 = 0 then "garbage" else ""))
          files;
        let rebuilt, hits, _ =
          result_delta (fun () -> Rips.tool.Secflow.Tool.analyze_project p)
        in
        Alcotest.(check int) "nothing replays from garbage" 0 hits;
        Alcotest.check check_result "re-analysis reproduces cold results" cold
          rebuilt;
        let warm, warm_hits, _ =
          result_delta (fun () -> Rips.tool.Secflow.Tool.analyze_project p)
        in
        Alcotest.check check_result "repopulated entries replay" cold warm;
        Alcotest.(check bool) "warm again after repopulation" true
          (warm_hits > 0));
    case "entries from another format version are misses" `Quick (fun () ->
        with_cache_dir @@ fun dir ->
        Store.put ~ns:"vtest" ~key:"k" [ 1; 2; 3 ];
        Alcotest.(check bool) "round-trips before tampering" true
          (Store.get ~ns:"vtest" ~key:"k" = Some [ 1; 2; 3 ]);
        let stamp = Printf.sprintf "phpsafe-store %d" Store.format_version in
        let next = Printf.sprintf "phpsafe-store %d" (Store.format_version + 1) in
        List.iter
          (fun f ->
            let ic = open_in_bin f in
            let len = in_channel_length ic in
            let body = really_input_string ic len in
            close_in ic;
            if String.length body >= String.length stamp
               && String.equal (String.sub body 0 (String.length stamp)) stamp
            then
              overwrite f
                (next
                ^ String.sub body (String.length stamp)
                    (String.length body - String.length stamp)))
          (walk_files dir []);
        Alcotest.(check bool) "future-version entry is a miss" true
          (Store.get ~ns:"vtest" ~key:"k" = (None : int list option)));
    case "v5 trees are invisible after the v6 format bump" `Quick (fun () ->
        (* format 6 switched structural digests to Marshal.No_sharing, so
           every digest-derived key changed; the version gate is what keeps
           v5 entries from ever being read back as v6 ones *)
        Alcotest.(check bool) "store format is at least 6" true
          (Store.format_version >= 6);
        with_cache_dir @@ fun dir ->
        Store.put ~ns:"vtest" ~key:"k" "current";
        let vdir v = Filename.concat dir (Printf.sprintf "v%d" v) in
        (* demote the freshly written tree to the previous format's dir,
           as if it had been left behind by an older binary *)
        Sys.rename (vdir Store.format_version)
          (vdir (Store.format_version - 1));
        Alcotest.(check bool) "previous-version tree is a miss" true
          (Store.get ~ns:"vtest" ~key:"k" = (None : string option));
        Store.put ~ns:"vtest" ~key:"k" "rewritten";
        Alcotest.(check bool) "repopulating alongside the stale tree works"
          true
          (Store.get ~ns:"vtest" ~key:"k" = Some "rewritten"));
  ]

(* ------------------------------------------------------------------ *)
(* Disk faults and fsck                                               *)
(* ------------------------------------------------------------------ *)

let write_errors_for ns =
  match
    List.find_opt
      (fun (s : Store.stats) -> String.equal s.Store.ns ns)
      (Store.counters ())
  with
  | Some s -> s.Store.write_errors
  | None -> 0

let with_fault_hook hook f =
  Store.set_fault_hook (Some hook);
  Fun.protect ~finally:(fun () -> Store.set_fault_hook None) f

let fault_cases =
  [
    case "a failing write degrades to a counted miss, not an error" `Quick
      (fun () ->
        with_cache_dir @@ fun _dir ->
        with_fault_hook
          (fun op _path ->
            if op = `Write then
              raise (Unix.Unix_error (Unix.ENOSPC, "write", "")))
          (fun () ->
            let before = write_errors_for "ftest" in
            (* put must swallow the fault... *)
            Store.put ~ns:"ftest" ~key:"k" [ 1; 2; 3 ];
            (* ...count it... *)
            Alcotest.(check int) "write_error counted" (before + 1)
              (write_errors_for "ftest");
            (* ...and leave the entry absent, i.e. a plain miss *)
            Alcotest.(check bool) "entry is a miss" true
              (Store.get ~ns:"ftest" ~key:"k" = (None : int list option)));
        (* hook cleared: the same put now lands and replays *)
        Store.put ~ns:"ftest" ~key:"k" [ 1; 2; 3 ];
        Alcotest.(check bool) "store works again" true
          (Store.get ~ns:"ftest" ~key:"k" = Some [ 1; 2; 3 ]));
    case "a failing read is a miss and the entry survives" `Quick (fun () ->
        with_cache_dir @@ fun _dir ->
        Store.put ~ns:"ftest" ~key:"k" 42;
        with_fault_hook
          (fun op _path ->
            if op = `Read then
              raise (Unix.Unix_error (Unix.EIO, "read", "")))
          (fun () ->
            Alcotest.(check bool) "faulted read is a miss" true
              (Store.get ~ns:"ftest" ~key:"k" = (None : int option)));
        Alcotest.(check bool) "entry intact after the fault" true
          (Store.get ~ns:"ftest" ~key:"k" = Some 42));
    case "fsck verifies good entries and quarantines corrupt ones" `Quick
      (fun () ->
        with_cache_dir @@ fun dir ->
        Store.put ~ns:"fsck" ~key:"good" [ 1 ];
        Store.put ~ns:"fsck" ~key:"bad" [ 2 ];
        let clean = Store.fsck () in
        Alcotest.(check int) "all scanned" 2 clean.Store.fk_scanned;
        Alcotest.(check int) "all ok" 2 clean.Store.fk_ok;
        Alcotest.(check int) "none quarantined" 0 clean.Store.fk_quarantined;
        (* corrupt exactly the entry whose payload mentions its key *)
        let corrupted = ref 0 in
        List.iter
          (fun f ->
            let ic = open_in_bin f in
            let len = in_channel_length ic in
            let body = really_input_string ic len in
            close_in ic;
            if !corrupted = 0 && String.length body > 4 then begin
              overwrite f (String.sub body 0 (String.length body - 1) ^ "!");
              incr corrupted
            end)
          (walk_files dir []);
        Alcotest.(check int) "one entry corrupted" 1 !corrupted;
        let dirty = Store.fsck () in
        Alcotest.(check int) "one quarantined" 1 dirty.Store.fk_quarantined;
        Alcotest.(check int) "one still ok" 1 dirty.Store.fk_ok;
        (* the corrupt entry moved into quarantine/ rather than vanishing *)
        let qdir = Filename.concat dir "quarantine" in
        Alcotest.(check bool) "quarantine dir populated" true
          (Sys.file_exists qdir
          && Array.length (Sys.readdir qdir) = 1);
        (* a second pass sees only the survivor: quarantine isn't rescanned *)
        let again = Store.fsck () in
        Alcotest.(check int) "rescan scans the survivor" 1
          again.Store.fk_scanned;
        Alcotest.(check int) "rescan quarantines nothing" 0
          again.Store.fk_quarantined);
    case "fsck on a disabled store reports all zeros" `Quick (fun () ->
        Store.set_root None;
        let r = Store.fsck () in
        Alcotest.(check int) "scanned" 0 r.Store.fk_scanned;
        Alcotest.(check int) "quarantined" 0 r.Store.fk_quarantined);
  ]

(* ------------------------------------------------------------------ *)
(* Pool-size transparency on a shared directory                       *)
(* ------------------------------------------------------------------ *)

let jobs_case =
  case "--jobs 1 and --jobs 4 agree on a shared cache directory" `Quick
    (fun () ->
      let projects =
        List.init 4 (fun i ->
            project
              (Printf.sprintf "plugin%d" i)
              [ vuln_file (Printf.sprintf "a%d.php" i);
                vuln_file (Printf.sprintf "b%d.php" i) ])
      in
      let items =
        List.concat_map
          (fun (t : Secflow.Tool.t) -> List.map (fun p -> (t, p)) projects)
          tools
      in
      let run pool =
        Sched.map ~pool
          (fun ((t : Secflow.Tool.t), p) -> t.Secflow.Tool.analyze_project p)
          items
      in
      (* cold at --jobs 4 (concurrent writers) vs cold at --jobs 1 *)
      let cold4 = with_cache_dir (fun _ -> run (Sched.create ~size:4 ())) in
      let cold1, warm4 =
        with_cache_dir (fun _ ->
            let c = run (Sched.create ~size:1 ()) in
            (c, run (Sched.create ~size:4 ())))
      in
      Alcotest.(check int) "all items analyzed" (List.length items)
        (List.length cold4);
      List.iteri
        (fun i ((c4, c1), w4) ->
          Alcotest.check check_result
            (Printf.sprintf "item %d: cold jobs 4 = cold jobs 1" i)
            c1 c4;
          Alcotest.check check_result
            (Printf.sprintf "item %d: warm jobs 4 = cold jobs 1" i)
            c1 w4)
        (List.combine (List.combine cold4 cold1) warm4))

(* ------------------------------------------------------------------ *)
(* Disk-tier accounting and tenancy (the serving daemon's ops surface) *)
(* ------------------------------------------------------------------ *)

let disk_cases =
  [
    case "stats reports per-namespace entries and bytes" `Quick (fun () ->
        with_cache_dir (fun _dir ->
            Store.put ~ns:"alpha" ~key:"k1" [ 1; 2; 3 ];
            Store.put ~ns:"alpha" ~key:"k2" [ 4 ];
            Store.put ~ns:"beta" ~key:"k1" "hello";
            let stats = Store.stats () in
            let find ns =
              List.find_opt
                (fun (s : Store.disk_stats) -> String.equal s.Store.ds_ns ns)
                stats
            in
            (match find "alpha" with
            | Some s ->
                Alcotest.(check int) "alpha entries" 2 s.Store.ds_entries;
                Alcotest.(check bool) "alpha bytes > 0" true
                  (s.Store.ds_bytes > 0)
            | None -> Alcotest.fail "no alpha namespace in stats");
            match find "beta" with
            | Some s -> Alcotest.(check int) "beta entries" 1 s.Store.ds_entries
            | None -> Alcotest.fail "no beta namespace in stats"));
    case "stats is empty when the store is disabled" `Quick (fun () ->
        Store.set_root None;
        Alcotest.(check int) "no namespaces" 0 (List.length (Store.stats ())));
    case "prune removes only entries older than the cutoff" `Quick (fun () ->
        with_cache_dir (fun dir ->
            Store.put ~ns:"old" ~key:"k" [ 1 ];
            Store.put ~ns:"new" ~key:"k" [ 2 ];
            (* backdate every file under old/'s namespace directory *)
            let rec backdate path =
              if Sys.is_directory path then
                Array.iter
                  (fun e -> backdate (Filename.concat path e))
                  (Sys.readdir path)
              else Unix.utimes path 1000. 1000.
            in
            let vdir =
              Filename.concat dir
                (Printf.sprintf "v%d" Store.format_version)
            in
            backdate (Filename.concat vdir "old");
            let removed = Store.prune ~max_age_s:3600. () in
            Alcotest.(check int) "one entry pruned" 1 removed;
            Alcotest.(check bool) "old entry is now a miss" true
              (Store.get ~ns:"old" ~key:"k" = (None : int list option));
            Alcotest.(check bool) "fresh entry survives" true
              (Store.get ~ns:"new" ~key:"k" = Some [ 2 ])));
    case "tenants never share cache entries" `Quick (fun () ->
        with_cache_dir (fun _dir ->
            Store.with_tenant (Some "acme") (fun () ->
                Store.put ~ns:"t" ~key:"k" "acme-value");
            Store.with_tenant (Some "globex") (fun () ->
                Alcotest.(check bool) "other tenant misses" true
                  (Store.get ~ns:"t" ~key:"k" = (None : string option)));
            Alcotest.(check bool) "no-tenant misses" true
              (Store.get ~ns:"t" ~key:"k" = (None : string option));
            Store.with_tenant (Some "acme") (fun () ->
                Alcotest.(check bool) "same tenant hits" true
                  (Store.get ~ns:"t" ~key:"k" = Some "acme-value"));
            (* tenants surface as "tenant/ns" in the disk stats *)
            Alcotest.(check bool) "stats shows acme/t" true
              (List.exists
                 (fun (s : Store.disk_stats) ->
                   String.equal s.Store.ds_ns "acme/t")
                 (Store.stats ()))));
    case "invalid tenant names are rejected" `Quick (fun () ->
        List.iter
          (fun bad ->
            match Store.with_tenant (Some bad) (fun () -> ()) with
            | () -> Alcotest.fail ("accepted invalid tenant: " ^ bad)
            | exception Invalid_argument _ -> ())
          [ ""; "."; ".."; "a/b"; "a b"; "a\nb" ]);
  ]

(* ------------------------------------------------------------------ *)
(* Counter views                                                      *)
(* ------------------------------------------------------------------ *)

let counter_cases =
  [
    case "namespaces split at the last dot" `Quick (fun () ->
        with_cache_dir @@ fun _dir ->
        let tenant_project = project "dots" [ vuln_file "x.php" ] in
        let rips p =
          ignore (Rips.tool.Secflow.Tool.analyze_project p : Secflow.Report.result)
        in
        Store.with_tenant (Some "a.b") (fun () -> rips tenant_project);
        (* a tenant-less warm run replays, bumping
           cache.result.replayed.RIPS *)
        let p = project "replay" [ vuln_file "y.php" ] in
        rips p;
        rips p;
        let namespaces =
          List.map (fun (s : Store.stats) -> s.Store.ns) (Store.counters ())
        in
        Alcotest.(check bool) "tenant namespace a.b/result" true
          (List.mem "a.b/result" namespaces);
        Alcotest.(check bool) "replay counted" true
          (Obs.counter "cache.result.replayed.RIPS" > 0);
        List.iter
          (fun ns ->
            if List.mem ns [ "result.replayed"; "a"; "a.b"; "" ] then
              Alcotest.failf "bogus namespace %S" ns)
          namespaces);
  ]

let () =
  Alcotest.run "cache"
    [ ("warm replay", replay_cases);
      ("exact invalidation",
       (edited_file_case :: edited_callee_case :: opts_cases)
       @ [ budget_case; exhaustion_case; uncalled_status_case; pre_dedup_case;
           stale_summary_case ]
       @ cross_file_cases);
      ("corruption safety", corruption_cases);
      ("disk faults and fsck", fault_cases);
      ("pool transparency", [ jobs_case ]);
      ("disk accounting and tenancy", disk_cases);
      ("counter views", counter_cases) ]
