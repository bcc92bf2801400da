(** Persistent analysis-cache tests: warm runs must replay cold results
    byte-identically, invalidation must be exact (edited file, edited
    callee, profile switch, [--contexts], the per-analyzer [--budget-*]
    slices), corrupt or mismatched entries must read as misses, and a
    shared cache directory must be transparent at any pool size. *)

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

(* Fresh cache directory for the duration of [f]; the store is always
   disabled again afterwards (tests must not leak a root into each other). *)
let with_cache_dir f =
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

let result_stats () =
  match
    List.find_opt
      (fun (s : Store.stats) -> String.equal s.Store.ns "result")
      (Store.counters ())
  with
  | Some s -> (s.Store.hits, s.Store.misses)
  | None -> (0, 0)

(* Result-cache hits/misses attributable to [f] alone. *)
let result_delta f =
  let h0, m0 = result_stats () in
  let v = f () in
  let h1, m1 = result_stats () in
  (v, h1 - h0, m1 - m0)

let tools : Secflow.Tool.t list = [ Phpsafe.tool; Rips.tool; Pixy.tool ]

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
          let cold, _, cold_misses =
            result_delta (fun () -> tool.Secflow.Tool.analyze_project p)
          in
          let warm, warm_hits, warm_misses =
            result_delta (fun () -> tool.Secflow.Tool.analyze_project p)
          in
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
      (* only lib.php changes; main.php's bytes are untouched, but its
         include closure digest differs, so its entry must not replay *)
      let p2 = project "callee" [ main ""; lib "return htmlspecialchars($x);" ] in
      let r2, _, misses =
        result_delta (fun () -> Phpsafe.tool.Secflow.Tool.analyze_project p2)
      in
      Alcotest.(check bool) "sanitizing callee silences the sink" true
        (r2.Secflow.Report.findings = []);
      Alcotest.(check bool) "includer re-analyzed, not replayed" true
        (misses > 0);
      let r3, hits3, misses3 =
        result_delta (fun () -> Phpsafe.tool.Secflow.Tool.analyze_project p2)
      in
      Alcotest.check check_result "edited project replays warm" r2 r3;
      Alcotest.(check bool) "second run replays" true (hits3 > 0);
      Alcotest.(check int) "second run fully cached" 0 misses3)

let opts_cases =
  let p () = project "opts" [ vuln_file "a.php" ] in
  [
    case "profile switch misses instead of reusing" `Quick (fun () ->
        with_cache_dir @@ fun _dir ->
        ignore (Phpsafe.analyze_project (p ()));
        let drupal =
          { Phpsafe.default_options with
            Phpsafe.config = Phpsafe.Drupal.default_config }
        in
        let _, hits, misses =
          result_delta (fun () -> Phpsafe.analyze_project ~opts:drupal (p ()))
        in
        Alcotest.(check int) "no WordPress entry reused" 0 hits;
        Alcotest.(check bool) "analyzed afresh" true (misses > 0);
        let _, hits2, _ =
          result_delta (fun () -> Phpsafe.analyze_project ~opts:drupal (p ()))
        in
        Alcotest.(check bool) "same profile replays" true (hits2 > 0));
    case "--contexts toggle misses instead of reusing" `Quick (fun () ->
        with_cache_dir @@ fun _dir ->
        ignore (Phpsafe.analyze_project (p ()));
        let ctx =
          { Phpsafe.default_options with Phpsafe.infer_contexts = true }
        in
        let _, hits, misses =
          result_delta (fun () -> Phpsafe.analyze_project ~opts:ctx (p ()))
        in
        Alcotest.(check int) "no context-free entry reused" 0 hits;
        Alcotest.(check bool) "analyzed afresh" true (misses > 0));
    case "--flow toggle misses instead of reusing" `Quick (fun () ->
        with_cache_dir @@ fun _dir ->
        ignore (Phpsafe.analyze_project (p ()));
        let flow =
          { Phpsafe.default_options with Phpsafe.flow_sensitive = true }
        in
        let _, hits, misses =
          result_delta (fun () -> Phpsafe.analyze_project ~opts:flow (p ()))
        in
        Alcotest.(check int) "no flat entry reused" 0 hits;
        Alcotest.(check bool) "analyzed afresh" true (misses > 0);
        let _, hits2, _ =
          result_delta (fun () -> Phpsafe.analyze_project ~opts:flow (p ()))
        in
        Alcotest.(check bool) "same mode replays" true (hits2 > 0));
    case "fixpoint cap joins phpSAFE's key only under --flow" `Quick
      (fun () ->
        (* the flow walk consults [fixpoint_passes], so bumping the cap
           must invalidate flow-mode entries — while flat-mode entries
           stay insensitive to it (asserted in the budget-slice case) *)
        with_cache_dir @@ fun _dir ->
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
        let _, hits, misses =
          result_delta (fun () -> Phpsafe.analyze_project ~opts:flow (p ()))
        in
        Alcotest.(check int) "flow entries invalidated" 0 hits;
        Alcotest.(check bool) "analyzed afresh" true (misses > 0));
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
      List.iter (fun (t : Secflow.Tool.t) -> ignore (t.Secflow.Tool.analyze_project p)) tools;
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
      Alcotest.(check bool) "phpSAFE unaffected by fixpoint cap" true
        (hits_for Phpsafe.tool > 0);
      Alcotest.(check bool) "RIPS unaffected by fixpoint cap" true
        (hits_for Rips.tool > 0);
      Alcotest.(check int) "Pixy misses on fixpoint cap" 0 (hits_for Pixy.tool);
      (* include caps: phpSAFE's slice only *)
      Secflow.Budget.set
        { d with Secflow.Budget.include_depth = d.Secflow.Budget.include_depth + 1 };
      Alcotest.(check int) "phpSAFE misses on include cap" 0
        (hits_for Phpsafe.tool);
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
        let cold = Phpsafe.tool.Secflow.Tool.analyze_project p in
        let files = walk_files dir [] in
        Alcotest.(check bool) "cold run persisted entries" true (files <> []);
        List.iteri
          (fun i f -> overwrite f (if i mod 2 = 0 then "garbage" else ""))
          files;
        let rebuilt, hits, _ =
          result_delta (fun () -> Phpsafe.tool.Secflow.Tool.analyze_project p)
        in
        Alcotest.(check int) "nothing replays from garbage" 0 hits;
        Alcotest.check check_result "re-analysis reproduces cold results" cold
          rebuilt;
        let warm, warm_hits, _ =
          result_delta (fun () -> Phpsafe.tool.Secflow.Tool.analyze_project p)
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

(* a -> b -> c across two files, plus a sibling d next to c *)
let dag_project c_body =
  project "dag"
    [ ("main.php",
       "<?php\nfunction a($x) { return b($x); }\n\
        function b($x) { return c($x); }\n");
      ("lib.php",
       Printf.sprintf
         "<?php\nfunction c($x) { %s }\nfunction d($x) { return $x; }\n"
         c_body) ]

(* [summary.dag.{invalidated,retained}] attributable to one run *)
let dag_delta ?opts p =
  let count () =
    (Obs.counter "summary.dag.invalidated", Obs.counter "summary.dag.retained")
  in
  let i0, r0 = count () in
  ignore (Phpsafe.analyze_project ?opts p : Secflow.Report.result);
  let i1, r1 = count () in
  (i1 - i0, r1 - r0)

let counter_cases =
  [
    case "summary-DAG counters track edits along the call chain" `Quick
      (fun () ->
        with_cache_dir @@ fun _dir ->
        Phpsafe.Analyzer.set_dag_tracking true;
        Fun.protect ~finally:(fun () -> Phpsafe.Analyzer.set_dag_tracking false)
        @@ fun () ->
        let check ?opts what expect p =
          Alcotest.(check (pair int int)) what expect (dag_delta ?opts p)
        in
        check "first run invalidates every definition" (4, 0)
          (dag_project "return $x;");
        check "editing c dirties c and its callers b and a" (3, 1)
          (dag_project "return $x . 'y';");
        check "whitespace inside a line moves nothing" (0, 4)
          (dag_project "return  $x . 'y';");
        check "a configuration change starts a fresh lineage" (4, 0)
          ~opts:{ Phpsafe.default_options with Phpsafe.infer_contexts = true }
          (dag_project "return  $x . 'y';"));
    case "namespaces split at the last dot" `Quick (fun () ->
        with_cache_dir @@ fun _dir ->
        let tenant_project = project "dots" [ vuln_file "x.php" ] in
        Store.with_tenant (Some "a.b") (fun () ->
            ignore
              (Phpsafe.analyze_project tenant_project : Secflow.Report.result));
        (* a tenant-less warm run replays, bumping
           cache.result.replayed.phpSAFE *)
        let p = project "replay" [ vuln_file "y.php" ] in
        ignore (Phpsafe.analyze_project p : Secflow.Report.result);
        ignore (Phpsafe.analyze_project p : Secflow.Report.result);
        let namespaces =
          List.map (fun (s : Store.stats) -> s.Store.ns) (Store.counters ())
        in
        Alcotest.(check bool) "tenant namespace a.b/result" true
          (List.mem "a.b/result" namespaces);
        Alcotest.(check bool) "replay counted" true
          (Obs.counter "cache.result.replayed.phpSAFE" > 0);
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
       (edited_file_case :: edited_callee_case :: opts_cases) @ [ budget_case ]);
      ("corruption safety", corruption_cases);
      ("disk faults and fsck", fault_cases);
      ("pool transparency", [ jobs_case ]);
      ("disk accounting and tenancy", disk_cases);
      ("counter views", counter_cases) ]
