(** Project model and LOC accounting tests: include-target extraction,
    transitive closure with cycles, and the line-counting rules. *)

open Phplang

let parse ~file src = Parser.parse_source ~file src

let file path source = { Project.path; source }

let case name f = Alcotest.test_case name `Quick f

let include_cases =
  [
    case "literal include targets in order" (fun () ->
        let prog =
          parse ~file:"a.php"
            "<?php include 'x.php'; require_once 'y.php'; if ($c) { include 'z.php'; }"
        in
        Alcotest.(check (list string)) "targets" [ "x.php"; "y.php"; "z.php" ]
          (Project.include_targets prog));
    case "dynamic includes are skipped" (fun () ->
        let prog = parse ~file:"a.php" "<?php include $path; include 'ok.php';" in
        Alcotest.(check (list string)) "targets" [ "ok.php" ]
          (Project.include_targets prog));
    case "includes found inside functions and classes" (fun () ->
        let prog =
          parse ~file:"a.php"
            "<?php function f() { include 'in-fn.php'; } class C { public function m() { include 'in-m.php'; } }"
        in
        Alcotest.(check (list string)) "targets" [ "in-fn.php"; "in-m.php" ]
          (Project.include_targets prog));
    case "closure depth and membership" (fun () ->
        let p =
          Project.make ~name:"p"
            [ file "a.php" "<?php include 'b.php';";
              file "b.php" "<?php include 'c.php';";
              file "c.php" "<?php $x = 1;" ]
        in
        let targets (f : Project.file) =
          Project.include_targets (parse ~file:f.Project.path f.Project.source)
        in
        let cl = Project.include_closure ~targets p "a.php" in
        Alcotest.(check (list string)) "closure" [ "a.php"; "b.php"; "c.php" ]
          cl.Project.cl_paths;
        Alcotest.(check int) "depth" 2 cl.Project.cl_max_depth;
        Alcotest.(check int) "no unresolved" 0 cl.Project.cl_unresolved;
        Alcotest.(check bool) "not truncated" false cl.Project.cl_truncated);
    case "closure cuts cycles" (fun () ->
        let p =
          Project.make ~name:"p"
            [ file "a.php" "<?php include 'b.php';";
              file "b.php" "<?php include 'a.php';" ]
        in
        let targets (f : Project.file) =
          Project.include_targets (parse ~file:f.Project.path f.Project.source)
        in
        let cl = Project.include_closure ~targets p "a.php" in
        Alcotest.(check (list string)) "closure" [ "a.php"; "b.php" ]
          cl.Project.cl_paths);
    case "missing include files are tolerated" (fun () ->
        let p = Project.make ~name:"p" [ file "a.php" "<?php include 'wp-load.php';" ] in
        let targets (f : Project.file) =
          Project.include_targets (parse ~file:f.Project.path f.Project.source)
        in
        let cl = Project.include_closure ~targets p "a.php" in
        Alcotest.(check int) "closure size" 2 (List.length cl.Project.cl_paths);
        Alcotest.(check int) "depth counts the attempt" 1 cl.Project.cl_max_depth;
        Alcotest.(check int) "unresolved counted" 1 cl.Project.cl_unresolved);
    case "find and file_count" (fun () ->
        let p = Project.make ~name:"p" [ file "a.php" "x"; file "b.php" "y" ] in
        Alcotest.(check int) "count" 2 (Project.file_count p);
        Alcotest.(check bool) "find hit" true (Project.find p "a.php" <> None);
        Alcotest.(check bool) "find miss" true (Project.find p "c.php" = None));
  ]

let loc_cases =
  [
    case "count skips blank lines" (fun () ->
        Alcotest.(check int) "loc" 3 (Loc.count "a\n\nb\n   \nc"));
    case "count of empty string" (fun () ->
        Alcotest.(check int) "loc" 0 (Loc.count ""));
    case "physical lines" (fun () ->
        Alcotest.(check int) "lines" 3 (Loc.physical_lines "a\nb\nc");
        Alcotest.(check int) "trailing newline" 3 (Loc.physical_lines "a\nb\nc\n");
        Alcotest.(check int) "empty" 0 (Loc.physical_lines ""));
    case "tabs and spaces are blank" (fun () ->
        Alcotest.(check int) "loc" 1 (Loc.count "\t \r\nreal"));
    case "project_loc sums files" (fun () ->
        let p =
          Project.make ~name:"p" [ file "a.php" "x\ny"; file "b.php" "z" ]
        in
        Alcotest.(check int) "total" 3 (Project.loc p));
  ]

(* Regression for the memo deadlock: a [parse] thunk that raised used to
   leave the In_progress marker in the table forever, so every later caller
   for the same key blocked on the condition variable.  Now the marker is
   removed and waiters are woken; the next caller retries. *)
let cache_cases =
  [
    case "a raising parse doesn't poison the cache entry" (fun () ->
        let cache = Project.Parse_cache.create () in
        let key = ("crash.php", "digest") in
        (match
           Project.Parse_cache.memo cache key (fun () -> failwith "boom")
         with
        | _ -> Alcotest.fail "memo should re-raise"
        | exception Failure _ -> ());
        (* the key is free again: the next memo runs its thunk *)
        let ran = ref false in
        (match
           Project.Parse_cache.memo cache key (fun () ->
               ran := true;
               Error (Project.Syntax "after crash"))
         with
        | Error (Project.Syntax "after crash") -> ()
        | _ -> Alcotest.fail "expected the retried thunk's result");
        Alcotest.(check bool) "thunk ran" true !ran);
    case "waiters on a raising parse unblock" (fun () ->
        let cache = Project.Parse_cache.create () in
        let key = ("slow.php", "digest") in
        let others_may_finish = Semaphore.Binary.make false in
        (* domain 1 holds the In_progress marker, then raises *)
        let crasher =
          Domain.spawn (fun () ->
              match
                Project.Parse_cache.memo cache key (fun () ->
                    Semaphore.Binary.release others_may_finish;
                    Unix.sleepf 0.05;
                    raise Exit)
              with
              | _ -> false
              | exception Exit -> true)
        in
        (* domains 2..4 pile up on the same key while the marker is live;
           before the fix they blocked forever once the parse raised *)
        Semaphore.Binary.acquire others_may_finish;
        let waiters =
          List.init 3 (fun i ->
              Domain.spawn (fun () ->
                  Project.Parse_cache.memo cache key (fun () ->
                      Error (Project.Syntax ("waiter " ^ string_of_int i)))))
        in
        Alcotest.(check bool) "crasher saw its exception" true
          (Domain.join crasher);
        List.iter
          (fun d ->
            match Domain.join d with
            | Error (Project.Syntax _) -> ()
            | _ -> Alcotest.fail "waiter should see a retried Error")
          waiters);
  ]

let () =
  Alcotest.run "project"
    [
      ("includes", include_cases);
      ("loc", loc_cases);
      ("parse cache", cache_cases);
    ]
