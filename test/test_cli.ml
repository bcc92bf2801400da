(** Integration tests for [bin/phpsafe_cli]: the CI-friendly exit-status
    contract (0 = clean scan, 1 = findings remain after the [--kind]
    filter, 2 = some file's analysis failed) and the [--metrics]/[--trace]
    exporters.  The binary is a declared dune dependency of this test, so
    the relative path below always resolves inside the build context. *)

let exe =
  (* cwd is _build/default/test under `dune runtest`, the workspace root
     under `dune exec test/test_cli.exe` *)
  let candidates =
    [
      Filename.concat ".." (Filename.concat "bin" "phpsafe_cli.exe");
      List.fold_left Filename.concat "_build" [ "default"; "bin"; "phpsafe_cli.exe" ];
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> path
  | None -> List.hd candidates

let case = Alcotest.test_case

let write path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let in_temp_dir f =
  let dir = Filename.temp_file "phpsafe_cli" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Sys.readdir dir |> Array.iter (fun e -> Sys.remove (Filename.concat dir e));
      Sys.rmdir dir)
    (fun () -> f dir)

let run_cli args =
  Sys.command
    (Printf.sprintf "%s %s > /dev/null 2> /dev/null" (Filename.quote exe) args)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let exit_cases =
  [
    case "clean scan exits 0" `Quick (fun () ->
        in_temp_dir (fun dir ->
            let f = Filename.concat dir "clean.php" in
            write f "<?php echo \"hello\";\n";
            Alcotest.(check int) "status" 0 (run_cli (Filename.quote f))));
    case "findings exit 1" `Quick (fun () ->
        in_temp_dir (fun dir ->
            let f = Filename.concat dir "vuln.php" in
            write f "<?php echo $_GET['x'];\n";
            Alcotest.(check int) "status" 1 (run_cli (Filename.quote f))));
    case "the --kind filter decides between 1 and 0" `Quick (fun () ->
        in_temp_dir (fun dir ->
            let f = Filename.concat dir "vuln.php" in
            (* XSS only: echo of an unsanitized request parameter *)
            write f "<?php echo $_GET['x'];\n";
            Alcotest.(check int) "xss still reported" 1
              (run_cli (Filename.quote f ^ " --kind xss"));
            Alcotest.(check int) "sqli filter leaves a clean scan" 0
              (run_cli (Filename.quote f ^ " --kind sqli"))));
    case "analysis failure exits 2" `Quick (fun () ->
        in_temp_dir (fun dir ->
            let f = Filename.concat dir "broken.php" in
            write f "<?php if (\n";
            Alcotest.(check int) "status" 2 (run_cli (Filename.quote f))));
    case "analysis failure wins over findings" `Quick (fun () ->
        in_temp_dir (fun dir ->
            write (Filename.concat dir "vuln.php") "<?php echo $_GET['x'];\n";
            write (Filename.concat dir "broken.php") "<?php if (\n";
            Alcotest.(check int) "status" 2 (run_cli (Filename.quote dir))));
  ]

let export_cases =
  [
    case "--metrics and --trace write non-empty JSON" `Quick (fun () ->
        in_temp_dir (fun dir ->
            let f = Filename.concat dir "vuln.php" in
            write f "<?php echo $_GET['x'];\n";
            let metrics = Filename.concat dir "m.json" in
            let trace = Filename.concat dir "t.json" in
            Alcotest.(check int) "status still reflects findings" 1
              (run_cli
                 (Printf.sprintf "%s --metrics %s --trace %s"
                    (Filename.quote f) (Filename.quote metrics)
                    (Filename.quote trace)));
            let m = read_file metrics and t = read_file trace in
            Alcotest.(check bool) "metrics non-empty object" true
              (String.length m > 2 && m.[0] = '{');
            Alcotest.(check bool) "metrics mention the analysis stage" true
              (let needle = "phpsafe.analysis" in
               let nl = String.length needle and hl = String.length m in
               let rec at i =
                 i + nl <= hl && (String.sub m i nl = needle || at (i + 1))
               in
               at 0);
            Alcotest.(check bool) "trace has the traceEvents envelope" true
              (String.length t > 15 && String.sub t 0 15 = "{\"traceEvents\":")));
    case "no flags leave stdout untouched by obs" `Quick (fun () ->
        in_temp_dir (fun dir ->
            let f = Filename.concat dir "vuln.php" in
            write f "<?php echo $_GET['x'];\n";
            let out1 = Filename.concat dir "out1.txt" in
            let out2 = Filename.concat dir "out2.txt" in
            let run out extra =
              ignore
                (Sys.command
                   (Printf.sprintf "%s %s %s > %s 2> /dev/null"
                      (Filename.quote exe) (Filename.quote f) extra
                      (Filename.quote out)))
            in
            run out1 "";
            run out2
              (Printf.sprintf "--trace %s"
                 (Filename.quote (Filename.concat dir "t.json")));
            Alcotest.(check string) "findings output identical under --trace"
              (read_file out1) (read_file out2)));
  ]

let contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  at 0

(* [--config] merges the spec after generic-php; a spec entry reusing a
   builtin name loses to the builtin and the CLI says so on stderr *)
let config_cases =
  let scan dir ?spec ~php () =
    let php_file = Filename.concat dir "q.php" in
    let out = Filename.concat dir "out.txt" and err = Filename.concat dir "err.txt" in
    write php_file php;
    let config =
      match spec with
      | None -> ""
      | Some spec ->
          let spec_file = Filename.concat dir "custom.spec" in
          write spec_file spec;
          " --config " ^ Filename.quote spec_file
    in
    let status =
      Sys.command
        (Printf.sprintf "%s %s%s > %s 2> %s" (Filename.quote exe)
           (Filename.quote php_file) config (Filename.quote out)
           (Filename.quote err))
    in
    (status, read_file out, read_file err)
  in
  [
    case "a new custom sanitizer clears the finding" `Quick (fun () ->
        in_temp_dir (fun dir ->
            (* without the spec, the identity function carries the taint *)
            let php =
              "<?php function my_strip($s) { return $s; }\n\
               mysql_query(\"SELECT * FROM t WHERE a = \" . \
               my_strip($_GET[\"x\"]));\n"
            in
            let status, _, _ = scan dir ~php () in
            Alcotest.(check int) "finding without the spec" 1 status;
            let status, _, err =
              scan dir ~spec:"sanitizer function my_strip xss,sqli\n" ~php ()
            in
            Alcotest.(check int) "clean scan" 0 status;
            Alcotest.(check bool) "no config warning" false
              (contains err "config warning")));
    case "a shadowed builtin name warns and keeps the finding" `Quick
      (fun () ->
        in_temp_dir (fun dir ->
            let status, out, err =
              scan dir ~spec:"sanitizer function strip_tags xss,sqli\n"
                ~php:
                  "<?php mysql_query(\"SELECT * FROM t WHERE a = \" . \
                   strip_tags($_GET[\"x\"]));\n"
                ()
            in
            Alcotest.(check int) "finding kept" 1 status;
            Alcotest.(check bool) "the SQLi is reported" true
              (contains out "SQLi");
            Alcotest.(check int) "one warning line" 1
              (List.length
                 (List.filter
                    (fun l -> contains l "config warning")
                    (String.split_on_char '\n' err)));
            Alcotest.(check bool) "the warning names entry and winner" true
              (contains err
                 "phpsafe: config warning: sanitizer function strip_tags is \
                  shadowed by generic-php (first entry wins)")));
  ]

let () =
  Alcotest.run "phpsafe_cli"
    [ ("exit status", exit_cases); ("exporters", export_cases);
      ("custom profile", config_cases) ]
