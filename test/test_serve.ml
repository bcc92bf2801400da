(** Serving-layer tests: frame codec under partial/coalesced delivery,
    defensive request decoding, and the daemon end-to-end over its real
    Unix socket — byte-identity with the in-process encoder, protocol
    robustness (malformed JSON, oversized frames, wrong protocol version,
    mid-request disconnects), admission control, graceful shutdown and
    fault-injected scan payloads.  The invariant throughout: structured
    error replies or a clean close, never a crash. *)

module Protocol = Serve.Protocol
module Scan = Serve.Scan
module Json = Secflow.Json

let case = Alcotest.test_case

(* socket clients must see EPIPE as an error code, not a fatal signal *)
let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* ------------------------------------------------------------------ *)
(* Helpers                                                            *)
(* ------------------------------------------------------------------ *)

let project name files =
  Phplang.Project.make ~name
    (List.map (fun (path, source) -> { Phplang.Project.path; source }) files)

let vuln_project =
  project "demo"
    [ ("a.php", "<?php\n$x = $_GET['q'];\necho $x;\n");
      ("b.php",
       "<?php\n$id = $_POST['id'];\nmysql_query(\"SELECT * FROM t WHERE id = \
        $id\");\n") ]

let clean_project = project "clean" [ ("ok.php", "<?php echo 'hello';\n") ]

(* Findings from every new vulnerability class; the so-sqli one only
   exists when the two-phase [second_order] pass connects the stored
   write in store.php to the read-back sink in render.php. *)
let classes_project =
  project "classes"
    [ ("cmd.php",
       "<?php\nsystem('convert ' . $_GET['f']);\nreadfile('/srv/' . \
        $_POST['p']);\nwp_remote_get($_GET['u']);\n");
      ("store.php", "<?php update_option('cp_msg', $_POST['msg']);\n");
      ("render.php",
       "<?php\n$m = get_option('cp_msg');\n$wpdb->query(\"UPDATE t SET m = \
        '\" . $m . \"'\");\n") ]

let scan_req ?id ?tenant ?(opts = Scan.default)
    ?(budget = Secflow.Budget.default) ?deadline_ms proj =
  Protocol.encode_scan_request
    { Protocol.sr_id = id; sr_tenant = tenant; sr_project = proj;
      sr_opts = opts; sr_budget = budget; sr_deadline_ms = deadline_ms }

let error_code reply =
  match Json.parse reply with
  | Error m -> Alcotest.fail ("reply is not JSON: " ^ m)
  | Ok json -> (
      match
        ( Option.bind (Json.member "ok" json) Json.to_bool_opt,
          Option.bind (Json.member "error" json) (Json.member "code")
          |> fun o -> Option.bind o Json.to_string_opt )
      with
      | Some false, Some code -> code
      | _ -> Alcotest.fail ("not an error reply: " ^ reply))

let is_ok reply =
  match Json.parse reply with
  | Ok json ->
      Option.bind (Json.member "ok" json) Json.to_bool_opt = Some true
  | Error _ -> false

(* ------------------------------------------------------------------ *)
(* Frame codec over a socketpair                                       *)
(* ------------------------------------------------------------------ *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let frame_cases =
  [
    case "round-trip, including the empty payload" `Quick (fun () ->
        with_socketpair (fun a b ->
            List.iter
              (fun payload ->
                Protocol.write_frame a payload;
                match Protocol.read_frame b with
                | Protocol.Frame got ->
                    Alcotest.(check string) "payload" payload got
                | _ -> Alcotest.fail "expected a frame")
              [ "hello"; ""; String.make 100_000 'x' ]));
    case "partial delivery: one byte at a time still yields the frame"
      `Quick (fun () ->
        with_socketpair (fun a b ->
            let payload = "{\"op\":\"status\"}" in
            let writer =
              Thread.create
                (fun () ->
                  (* hand-build the frame and trickle it byte by byte *)
                  let len = String.length payload in
                  let header =
                    Bytes.init 4 (fun i ->
                        Char.chr ((len lsr (8 * (3 - i))) land 0xff))
                  in
                  let all = Bytes.cat header (Bytes.of_string payload) in
                  Bytes.iter
                    (fun c ->
                      ignore
                        (Unix.write a (Bytes.make 1 c) 0 1 : int);
                      Thread.delay 0.001)
                    all)
                ()
            in
            let got = Protocol.read_frame b in
            Thread.join writer;
            match got with
            | Protocol.Frame s -> Alcotest.(check string) "payload" payload s
            | _ -> Alcotest.fail "expected a frame"));
    case "coalesced delivery: two frames written back-to-back" `Quick
      (fun () ->
        with_socketpair (fun a b ->
            Protocol.write_frame a "first";
            Protocol.write_frame a "second";
            (match Protocol.read_frame b with
            | Protocol.Frame s -> Alcotest.(check string) "first" "first" s
            | _ -> Alcotest.fail "expected first frame");
            match Protocol.read_frame b with
            | Protocol.Frame s -> Alcotest.(check string) "second" "second" s
            | _ -> Alcotest.fail "expected second frame"));
    case "oversized declared length is reported, not allocated blindly"
      `Quick (fun () ->
        with_socketpair (fun a b ->
            Protocol.write_frame a (String.make 4096 'y');
            match Protocol.read_frame ~max_bytes:1024 b with
            | Protocol.Oversized n -> Alcotest.(check int) "length" 4096 n
            | _ -> Alcotest.fail "expected Oversized"));
    case "truncated header or body reads as Eof" `Quick (fun () ->
        with_socketpair (fun a b ->
            ignore (Unix.write a (Bytes.of_string "\000\000") 0 2 : int);
            Unix.close a;
            match Protocol.read_frame b with
            | Protocol.Eof -> ()
            | _ -> Alcotest.fail "expected Eof on truncated header");
        with_socketpair (fun a b ->
            (* header promises 100 bytes; deliver 3 and vanish *)
            ignore
              (Unix.write a (Bytes.of_string "\000\000\000\100abc") 0 7 : int);
            Unix.close a;
            match Protocol.read_frame b with
            | Protocol.Eof -> ()
            | _ -> Alcotest.fail "expected Eof on truncated body"));
    case "write to a closed peer raises Closed, not a signal" `Quick
      (fun () ->
        with_socketpair (fun a b ->
            Unix.close b;
            let big = String.make 1_000_000 'z' in
            match
              (* the first write may land in the kernel buffer; keep
                 writing until the failure surfaces *)
              for _ = 1 to 64 do
                Protocol.write_frame a big
              done
            with
            | () -> Alcotest.fail "expected Closed"
            | exception Protocol.Closed -> ()));
  ]

(* ------------------------------------------------------------------ *)
(* Request decoding                                                    *)
(* ------------------------------------------------------------------ *)

let expect_code expected payload =
  match Protocol.decode_request payload with
  | Ok _ -> Alcotest.fail ("decoded instead of rejecting: " ^ payload)
  | Error e -> Alcotest.(check string) "error code" expected e.Protocol.e_code

let decode_cases =
  [
    case "malformed JSON is bad_json" `Quick (fun () ->
        List.iter (expect_code "bad_json")
          [ "{"; "not json"; "{\"op\":}"; "\xff\xfe"; "{} trailing" ]);
    case "missing or wrong protocol version is bad_proto" `Quick (fun () ->
        expect_code "bad_proto" "{\"op\":\"status\"}";
        expect_code "bad_proto"
          "{\"proto\":\"phpsafe-serve/999\",\"op\":\"status\"}");
    case "missing and unknown ops are bad_request" `Quick (fun () ->
        expect_code "bad_request" "{\"proto\":\"phpsafe-serve/1\"}";
        expect_code "bad_request"
          "{\"proto\":\"phpsafe-serve/1\",\"op\":\"explode\"}");
    case "scan validation: project, tenant, tool, kind, budget" `Quick
      (fun () ->
        expect_code "bad_request"
          "{\"proto\":\"phpsafe-serve/1\",\"op\":\"scan\"}";
        expect_code "bad_request"
          "{\"proto\":\"phpsafe-serve/1\",\"op\":\"scan\",\"tenant\":\"../x\",\
           \"project\":{\"name\":\"p\",\"files\":[]}}";
        expect_code "bad_request"
          "{\"proto\":\"phpsafe-serve/1\",\"op\":\"scan\",\"tool\":\"weka\",\
           \"project\":{\"name\":\"p\",\"files\":[]}}";
        expect_code "bad_request"
          "{\"proto\":\"phpsafe-serve/1\",\"op\":\"scan\",\"kind\":\"csrf\",\
           \"project\":{\"name\":\"p\",\"files\":[]}}";
        expect_code "bad_request"
          "{\"proto\":\"phpsafe-serve/1\",\"op\":\"scan\",\
           \"budget\":{\"parse_depth\":0},\
           \"project\":{\"name\":\"p\",\"files\":[]}}";
        expect_code "bad_request"
          "{\"proto\":\"phpsafe-serve/1\",\"op\":\"scan\",\
           \"project\":{\"name\":\"p\",\"files\":[{\"path\":\"\",\
           \"source\":\"x\"}]}}");
    case "deeply nested payload is rejected, not a stack overflow" `Quick
      (fun () ->
        let bomb =
          String.concat "" (List.init 100_000 (fun _ -> "["))
          ^ String.concat "" (List.init 100_000 (fun _ -> "]"))
        in
        expect_code "bad_json" bomb);
    case "scan request round-trips through encode/decode" `Quick (fun () ->
        let budget =
          { Secflow.Budget.default with Secflow.Budget.parse_depth = 7 }
        in
        let opts =
          { Scan.tool = "phpsafe"; kind = Some Secflow.Vuln.Xss;
            contexts = true; flow = true; second_order = true }
        in
        let payload =
          scan_req ~id:"req-1" ~tenant:"acme" ~opts ~budget vuln_project
        in
        match Protocol.decode_request payload with
        | Error e -> Alcotest.fail ("rejected: " ^ e.Protocol.e_msg)
        | Ok (Protocol.Scan r) ->
            Alcotest.(check (option string)) "id" (Some "req-1")
              r.Protocol.sr_id;
            Alcotest.(check (option string)) "tenant" (Some "acme")
              r.Protocol.sr_tenant;
            Alcotest.(check bool) "opts" true (r.Protocol.sr_opts = opts);
            Alcotest.(check bool) "budget" true (r.Protocol.sr_budget = budget);
            Alcotest.(check bool) "project" true
              (r.Protocol.sr_project = vuln_project)
        | Ok _ -> Alcotest.fail "decoded to a non-scan request");
    case "simple requests round-trip" `Quick (fun () ->
        match
          Protocol.decode_request
            (Protocol.encode_simple_request ~op:"status" ~id:"s1" ())
        with
        | Ok (Protocol.Status (Some "s1")) -> ()
        | _ -> Alcotest.fail "status round-trip failed");
    case "scan_report_of_reply cuts the spliced report back out verbatim"
      `Quick (fun () ->
        let report = "{\"summary\":{\"xss\":1},\"findings\":[]}" in
        let reply = Protocol.scan_reply ~id:"x\"report\":y" ~report () in
        (match Protocol.scan_report_of_reply reply with
        | Ok got -> Alcotest.(check string) "verbatim" report got
        | Error m -> Alcotest.fail m);
        match
          Protocol.scan_report_of_reply
            (Protocol.error_reply ~op:"scan" ~code:"overloaded" ~msg:"full" ())
        with
        | Error m ->
            Alcotest.(check bool) "carries the code" true
              (String.length m > 0
              && String.sub m 0 12 = "server error")
        | Ok _ -> Alcotest.fail "error reply produced a report");
  ]

(* ------------------------------------------------------------------ *)
(* Daemon end-to-end                                                   *)
(* ------------------------------------------------------------------ *)

let sock_seq = ref 0

let connect sock =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  fd

(* Run [f] with a process-global before-analyze hook installed, clearing
   it afterwards whatever happens. *)
let with_scan_hook hook f =
  Scan.set_before_analyze_hook (Some hook);
  Fun.protect ~finally:(fun () -> Scan.set_before_analyze_hook None) f

let with_daemon ?(reshape = fun c -> c) f =
  incr sock_seq;
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "phpsafe-test-serve-%d-%d.sock" (Unix.getpid ())
         !sock_seq)
  in
  if Sys.file_exists sock then Sys.remove sock;
  let cfg =
    reshape (Serve.Daemon.default_config (Serve.Daemon.Unix_sock sock))
  in
  let daemon = Thread.create Serve.Daemon.run cfg in
  let deadline = Unix.gettimeofday () +. 10. in
  while (not (Sys.file_exists sock)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  if not (Sys.file_exists sock) then Alcotest.fail "daemon did not come up";
  Fun.protect
    ~finally:(fun () ->
      (match connect sock with
      | exception _ -> ()
      | fd ->
          (try
             Protocol.write_frame fd
               (Protocol.encode_simple_request ~op:"shutdown" ());
             ignore (Protocol.read_frame fd)
           with _ -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ()));
      Thread.join daemon)
    (fun () -> f sock)

(* One request/reply on a fresh connection. *)
let roundtrip_on connect_fn payload =
  let fd = connect_fn () in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Protocol.write_frame fd payload;
      match Protocol.read_frame fd with
      | Protocol.Frame reply -> reply
      | Protocol.Eof -> Alcotest.fail "connection closed instead of replying"
      | Protocol.Timed_out -> Alcotest.fail "read timed out"
      | Protocol.Oversized _ -> Alcotest.fail "oversized reply")

let roundtrip sock payload = roundtrip_on (fun () -> connect sock) payload

let scan_via sock ?tenant ?(opts = Scan.default) proj =
  match
    Protocol.scan_report_of_reply (roundtrip sock (scan_req ?tenant ~opts proj))
  with
  | Ok report -> report
  | Error m -> Alcotest.fail ("scan failed: " ^ m)

let daemon_cases =
  [
    case "scan replies are byte-identical to the in-process encoder" `Quick
      (fun () ->
        with_daemon (fun sock ->
            List.iter
              (fun (opts : Scan.opts) ->
                let expected = Scan.run_json opts vuln_project in
                Alcotest.(check string)
                  (Printf.sprintf "tool=%s contexts=%b flow=%b kind=%s"
                     opts.Scan.tool opts.Scan.contexts opts.Scan.flow
                     (Scan.kind_to_string opts.Scan.kind))
                  expected
                  (scan_via sock ~opts vuln_project))
              [ Scan.default;
                { Scan.default with Scan.contexts = true };
                { Scan.default with Scan.flow = true };
                { Scan.default with Scan.kind = Some Secflow.Vuln.Xss };
                { Scan.default with Scan.tool = "rips" };
                { Scan.default with Scan.tool = "pixy" } ]))
    ;
    case "new-class scans are byte-identical, two-phase included" `Quick
      (fun () ->
        with_daemon (fun sock ->
            List.iter
              (fun (opts : Scan.opts) ->
                let expected = Scan.run_json opts classes_project in
                Alcotest.(check string)
                  (Printf.sprintf "second_order=%b kind=%s"
                     opts.Scan.second_order
                     (Scan.kind_to_string opts.Scan.kind))
                  expected
                  (scan_via sock ~opts classes_project))
              [ Scan.default;
                { Scan.default with Scan.second_order = true };
                { Scan.default with Scan.second_order = true;
                  Scan.kind = Some Secflow.Vuln.Second_order_sqli };
                { Scan.default with Scan.kind = Some Secflow.Vuln.Cmdi };
                { Scan.default with Scan.kind = Some Secflow.Vuln.Ssrf } ];
            (* the so-sqli finding exists only under the two-phase pass *)
            let contains hay needle =
              let nl = String.length needle and hl = String.length hay in
              let rec go i =
                i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
              in
              go 0
            in
            let flat = scan_via sock classes_project in
            let so =
              scan_via sock
                ~opts:{ Scan.default with Scan.second_order = true }
                classes_project
            in
            Alcotest.(check bool) "flat misses so-sqli" false
              (contains flat "\"kind\":\"SO-SQLi\"");
            Alcotest.(check bool) "two-phase finds so-sqli" true
              (contains so "\"kind\":\"SO-SQLi\"")))
    ;
    case "malformed JSON gets an error reply and the connection survives"
      `Quick (fun () ->
        with_daemon (fun sock ->
            let fd = connect sock in
            Fun.protect
              ~finally:(fun () ->
                try Unix.close fd with Unix.Unix_error _ -> ())
              (fun () ->
                Protocol.write_frame fd "this is not json";
                (match Protocol.read_frame fd with
                | Protocol.Frame reply ->
                    Alcotest.(check string) "code" "bad_json"
                      (error_code reply)
                | _ -> Alcotest.fail "expected an error reply");
                (* same connection still serves valid requests *)
                Protocol.write_frame fd
                  (Protocol.encode_simple_request ~op:"status" ());
                match Protocol.read_frame fd with
                | Protocol.Frame reply ->
                    Alcotest.(check bool) "status ok" true (is_ok reply)
                | _ -> Alcotest.fail "connection did not survive")))
    ;
    case "unknown protocol version gets bad_proto, connection survives"
      `Quick (fun () ->
        with_daemon (fun sock ->
            let fd = connect sock in
            Fun.protect
              ~finally:(fun () ->
                try Unix.close fd with Unix.Unix_error _ -> ())
              (fun () ->
                Protocol.write_frame fd
                  "{\"proto\":\"phpsafe-serve/99\",\"op\":\"status\"}";
                (match Protocol.read_frame fd with
                | Protocol.Frame reply ->
                    Alcotest.(check string) "code" "bad_proto"
                      (error_code reply)
                | _ -> Alcotest.fail "expected an error reply");
                Protocol.write_frame fd
                  (Protocol.encode_simple_request ~op:"metrics" ());
                match Protocol.read_frame fd with
                | Protocol.Frame reply ->
                    Alcotest.(check bool) "metrics ok" true (is_ok reply)
                | _ -> Alcotest.fail "connection did not survive")))
    ;
    case "oversized frame gets a structured refusal, then a clean close"
      `Quick (fun () ->
        with_daemon
          ~reshape:(fun c -> { c with Serve.Daemon.max_frame_bytes = 512 })
          (fun sock ->
            let fd = connect sock in
            Fun.protect
              ~finally:(fun () ->
                try Unix.close fd with Unix.Unix_error _ -> ())
              (fun () ->
                Protocol.write_frame fd (String.make 4096 'x');
                (match Protocol.read_frame fd with
                | Protocol.Frame reply ->
                    Alcotest.(check string) "code" "oversized"
                      (error_code reply)
                | _ -> Alcotest.fail "expected an error reply");
                match Protocol.read_frame fd with
                | Protocol.Eof -> ()
                | _ -> Alcotest.fail "expected a close after oversized");
            (* and the daemon itself is still alive *)
            Alcotest.(check bool) "daemon alive" true
              (is_ok
                 (roundtrip sock
                    (Protocol.encode_simple_request ~op:"status" ())))))
    ;
    case "mid-request disconnect never takes the daemon down" `Quick
      (fun () ->
        with_daemon (fun sock ->
            (* fire a scan and vanish without reading the reply *)
            let fd = connect sock in
            Protocol.write_frame fd (scan_req vuln_project);
            Unix.close fd;
            (* a second client is served normally afterwards *)
            let expected = Scan.run_json Scan.default vuln_project in
            Alcotest.(check string) "daemon still serves" expected
              (scan_via sock vuln_project)))
    ;
    case "concurrent scans all return byte-identical reports" `Quick
      (fun () ->
        with_daemon (fun sock ->
            let expected = Scan.run_json Scan.default vuln_project in
            let results = Array.make 8 "" in
            let client i =
              results.(i) <- scan_via sock vuln_project
            in
            let threads = List.init 8 (fun i -> Thread.create client i) in
            List.iter Thread.join threads;
            Array.iteri
              (fun i got ->
                Alcotest.(check string)
                  (Printf.sprintf "client %d" i)
                  expected got)
              results))
    ;
    case "admission control: max_queue 0 sheds every scan as overloaded"
      `Quick (fun () ->
        with_daemon
          ~reshape:(fun c -> { c with Serve.Daemon.max_queue = 0 })
          (fun sock ->
            let reply = roundtrip sock (scan_req clean_project) in
            Alcotest.(check string) "code" "overloaded" (error_code reply);
            (* non-scan ops are not subject to admission control *)
            Alcotest.(check bool) "status still ok" true
              (is_ok
                 (roundtrip sock
                    (Protocol.encode_simple_request ~op:"status" ())))))
    ;
    case "graceful shutdown drains queued scans before exiting" `Quick
      (fun () ->
        let delivered = ref "" in
        let expected = Scan.run_json Scan.default vuln_project in
        (* the hook holds the scan in flight until shutdown has been
           accepted, so the reply below can only come from the drain *)
        let release = Atomic.make false in
        let hold (p : Phplang.Project.t) =
          if String.equal p.Phplang.Project.name "demo" then begin
            let give_up = Unix.gettimeofday () +. 10. in
            while (not (Atomic.get release)) && Unix.gettimeofday () < give_up
            do
              Thread.delay 0.005
            done
          end
        in
        with_scan_hook hold (fun () ->
            Fun.protect
              ~finally:(fun () -> Atomic.set release true)
              (fun () ->
                with_daemon (fun sock ->
                    let fd = connect sock in
                    Protocol.write_frame fd (scan_req vuln_project);
                    let pending () =
                      match
                        Json.parse
                          (roundtrip sock
                             (Protocol.encode_simple_request ~op:"status" ()))
                      with
                      | Error m -> Alcotest.fail m
                      | Ok doc ->
                          List.exists
                            (fun k ->
                              match
                                Option.bind (Json.member k doc)
                                  Json.to_int_opt
                              with
                              | Some n -> n > 0
                              | None -> false)
                            [ "queue_depth"; "inflight" ]
                    in
                    let give_up = Unix.gettimeofday () +. 10. in
                    while
                      (not (pending ())) && Unix.gettimeofday () < give_up
                    do
                      Thread.delay 0.005
                    done;
                    if not (pending ()) then
                      Alcotest.fail "scan never showed as queued or in flight";
                    (* shutdown from a second connection while the scan is
                       in flight, then let the scan finish *)
                    ignore
                      (roundtrip sock
                         (Protocol.encode_simple_request ~op:"shutdown" ())
                        : string);
                    Atomic.set release true;
                    (match Protocol.read_frame fd with
                    | Protocol.Frame reply -> (
                        match Protocol.scan_report_of_reply reply with
                        | Ok report -> delivered := report
                        | Error m ->
                            Alcotest.fail ("drained scan failed: " ^ m))
                    | _ -> Alcotest.fail "queued scan was dropped on shutdown");
                    Unix.close fd)));
        (* with_daemon joined the daemon thread: shutdown completed *)
        Alcotest.(check string) "drained reply is the real report" expected
          !delivered)
    ;
    case "status and metrics report the ops surface" `Quick (fun () ->
        with_daemon (fun sock ->
            ignore (scan_via sock vuln_project : string);
            let status =
              roundtrip sock (Protocol.encode_simple_request ~op:"status" ())
            in
            let metrics =
              roundtrip sock (Protocol.encode_simple_request ~op:"metrics" ())
            in
            let int_field doc path =
              match Json.parse doc with
              | Error m -> Alcotest.fail m
              | Ok json ->
                  List.fold_left
                    (fun acc name -> Option.bind acc (Json.member name))
                    (Some json) path
                  |> fun o ->
                  Option.bind o Json.to_int_opt
                  |> Option.value ~default:(-1)
            in
            Alcotest.(check bool) "served >= 1" true
              (int_field status [ "served" ] >= 1);
            Alcotest.(check int) "queue drained" 0
              (int_field status [ "queue_depth" ]);
            Alcotest.(check bool) "latency count >= 1" true
              (int_field metrics [ "latency_ms"; "count" ] >= 1)))
    ;
    case "fault-injected sources come back as reports, never crashes"
      `Quick (fun () ->
        with_daemon (fun sock ->
            List.iter
              (fun ((kind : Evalkit.Faults.kind), mutant) ->
                let expected = Scan.run_json Scan.default mutant in
                Alcotest.(check string)
                  (Evalkit.Faults.kind_label kind)
                  expected
                  (scan_via sock mutant))
              (Evalkit.Faults.mutants ~seed:42 ~count:8 vuln_project)))
    ;
    case "option sets share one parse session per project" `Quick (fun () ->
        (* The session is refreshed to v2 by the default-option scan; a
           flow scan of the same v2 bytes then has nothing left to parse.
           A session per option set would re-parse both edited files. *)
        with_daemon (fun sock ->
            let v1 = vuln_project in
            let v2 =
              project "demo"
                (List.map
                   (fun (f : Phplang.Project.file) ->
                     (f.Phplang.Project.path,
                      f.Phplang.Project.source ^ "echo 'more';\n"))
                   v1.Phplang.Project.files)
            in
            let flow = { Scan.default with Scan.flow = true } in
            let parses () =
              Phplang.Project.Parse_cache.(misses shared)
            in
            ignore (scan_via sock v1 : string);
            ignore (scan_via sock ~opts:flow v1 : string);
            let before = parses () in
            ignore (scan_via sock v2 : string);
            Alcotest.(check int) "the edit re-parses each file once" 2
              (parses () - before);
            let before = parses () in
            Alcotest.(check string) "flow report unchanged"
              (Scan.run_json flow v2)
              (scan_via sock ~opts:flow v2);
            Alcotest.(check int) "no parse for another option set" 0
              (parses () - before)))
    ;
  ]

(* ------------------------------------------------------------------ *)
(* TCP transport, I/O timeouts and deadlines                           *)
(* ------------------------------------------------------------------ *)

(* Like [with_daemon] but over TCP on an ephemeral port; [f] receives a
   connect function for the port the kernel actually assigned. *)
let with_tcp_daemon ?(reshape = fun c -> c) f =
  let cfg =
    reshape (Serve.Daemon.default_config (Serve.Daemon.Tcp ("127.0.0.1", 0)))
  in
  let port = Atomic.make 0 in
  let daemon =
    Thread.create
      (fun () ->
        Serve.Daemon.run
          ~on_ready:(fun addr ->
            match addr with
            | Unix.ADDR_INET (_, p) -> Atomic.set port p
            | Unix.ADDR_UNIX _ -> ())
          cfg)
      ()
  in
  let give_up = Unix.gettimeofday () +. 10. in
  while Atomic.get port = 0 && Unix.gettimeofday () < give_up do
    Thread.delay 0.005
  done;
  if Atomic.get port = 0 then Alcotest.fail "TCP daemon did not come up";
  let connect_tcp () =
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd
      (Unix.ADDR_INET (Unix.inet_addr_loopback, Atomic.get port));
    fd
  in
  Fun.protect
    ~finally:(fun () ->
      (match connect_tcp () with
      | exception _ -> ()
      | fd ->
          (try
             Protocol.write_frame fd
               (Protocol.encode_simple_request ~op:"shutdown" ());
             ignore (Protocol.read_frame fd)
           with _ -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ()));
      Thread.join daemon)
    (fun () -> f connect_tcp)

let robustness_cases =
  [
    case "the Unix socket file appears only once it accepts connections"
      `Quick (fun () ->
        incr sock_seq;
        let sock =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "phpsafe-test-ready-%d-%d.sock" (Unix.getpid ())
               !sock_seq)
        in
        if Sys.file_exists sock then Sys.remove sock;
        let ready = Atomic.make None in
        let daemon =
          Thread.create
            (fun () ->
              Serve.Daemon.run
                ~on_ready:(fun addr -> Atomic.set ready (Some addr))
                (Serve.Daemon.default_config (Serve.Daemon.Unix_sock sock)))
            ()
        in
        (* connect the moment the file exists, with no grace delay *)
        let give_up = Unix.gettimeofday () +. 10. in
        while (not (Sys.file_exists sock)) && Unix.gettimeofday () < give_up do
          Thread.yield ()
        done;
        let fd =
          match connect sock with
          | fd -> fd
          | exception Unix.Unix_error (e, _, _) ->
              Alcotest.failf "first connect refused: %s" (Unix.error_message e)
        in
        Fun.protect
          ~finally:(fun () ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            Thread.join daemon)
          (fun () ->
            Protocol.write_frame fd
              (Protocol.encode_simple_request ~op:"shutdown" ());
            ignore (Protocol.read_frame fd));
        Alcotest.(check bool)
          "on_ready reports the final path" true
          (Atomic.get ready = Some (Unix.ADDR_UNIX sock));
        let leftovers =
          Sys.readdir (Filename.get_temp_dir_name ())
          |> Array.to_list
          |> List.filter
               (String.starts_with ~prefix:(Filename.basename sock ^ "."))
        in
        Alcotest.(check (list string)) "no temp socket left" [] leftovers;
        Alcotest.(check bool) "unlinked on shutdown" false (Sys.file_exists sock));
    case "TCP transport: byte-identical scans and oversized-frame refusal"
      `Quick (fun () ->
        with_tcp_daemon
          ~reshape:(fun c -> { c with Serve.Daemon.max_frame_bytes = 4096 })
          (fun connect_tcp ->
            let expected = Scan.run_json Scan.default vuln_project in
            (match
               Protocol.scan_report_of_reply
                 (roundtrip_on connect_tcp (scan_req vuln_project))
             with
            | Ok report ->
                Alcotest.(check string) "byte-identical over TCP" expected
                  report
            | Error m -> Alcotest.fail ("TCP scan failed: " ^ m));
            let fd = connect_tcp () in
            Fun.protect
              ~finally:(fun () ->
                try Unix.close fd with Unix.Unix_error _ -> ())
              (fun () ->
                Protocol.write_frame fd (String.make 8192 'x');
                (match Protocol.read_frame fd with
                | Protocol.Frame reply ->
                    Alcotest.(check string) "code" "oversized"
                      (error_code reply)
                | _ -> Alcotest.fail "expected an error reply");
                match Protocol.read_frame fd with
                | Protocol.Eof -> ()
                | _ -> Alcotest.fail "expected a close after oversized");
            Alcotest.(check bool) "daemon alive" true
              (is_ok
                 (roundtrip_on connect_tcp
                    (Protocol.encode_simple_request ~op:"status" ())))))
    ;
    case "io timeout: a stalled mid-frame peer is disconnected" `Quick
      (fun () ->
        with_daemon
          ~reshape:(fun c ->
            { c with Serve.Daemon.io_timeout_s = Some 0.15 })
          (fun sock ->
            let fd = connect sock in
            Fun.protect
              ~finally:(fun () ->
                try Unix.close fd with Unix.Unix_error _ -> ())
              (fun () ->
                (* a header promising 100 bytes, then silence: the server's
                   SO_RCVTIMEO fires and it closes the connection *)
                ignore
                  (Unix.write fd (Bytes.of_string "\000\000\000\100ab") 0 6
                    : int);
                match Protocol.read_frame fd with
                | Protocol.Eof -> ()
                | _ -> Alcotest.fail "expected the server to hang up");
            (* the daemon survives and counts the timeout *)
            let status =
              roundtrip sock (Protocol.encode_simple_request ~op:"status" ())
            in
            Alcotest.(check bool) "status ok" true (is_ok status)))
    ;
    case "deadline: analysis past deadline_ms gets deadline_exceeded"
      `Quick (fun () ->
        with_scan_hook
          (fun (p : Phplang.Project.t) ->
            if String.equal p.Phplang.Project.name "e2e-slow" then begin
              (* burn wall-clock cooperatively: the Deadline.check is what
                 a real analysis does at file/pass boundaries *)
              let stop = Unix.gettimeofday () +. 5. in
              while Unix.gettimeofday () < stop do
                Thread.delay 0.005;
                Secflow.Deadline.check ()
              done
            end)
          (fun () ->
            with_daemon (fun sock ->
                let slow =
                  project "e2e-slow" [ ("a.php", "<?php echo 'x';\n") ]
                in
                let reply =
                  roundtrip sock (scan_req ~deadline_ms:50 slow)
                in
                Alcotest.(check string) "code" "deadline_exceeded"
                  (error_code reply);
                (* no deadline on the next request: same project scans fine *)
                let fine =
                  project "fine" [ ("a.php", "<?php echo 'x';\n") ]
                in
                Alcotest.(check string) "undeadlined scan still works"
                  (Scan.run_json Scan.default fine)
                  (scan_via sock fine))))
    ;
    case "deadline: a request expiring in the queue is shed without running"
      `Quick (fun () ->
        let seen = ref [] in
        let m = Mutex.create () in
        with_scan_hook
          (fun (p : Phplang.Project.t) ->
            Mutex.lock m;
            seen := p.Phplang.Project.name :: !seen;
            Mutex.unlock m;
            if String.equal p.Phplang.Project.name "holdup" then
              Thread.delay 0.4)
          (fun () ->
            with_daemon
              ~reshape:(fun c ->
                { c with
                  Serve.Daemon.jobs = Some 1;
                  Serve.Daemon.max_inflight = Some 1 })
              (fun sock ->
                let holdup =
                  project "holdup" [ ("a.php", "<?php echo 'x';\n") ]
                in
                let waiter =
                  project "expired-waiter"
                    [ ("a.php", "<?php echo 'x';\n") ]
                in
                let fd1 = connect sock in
                Protocol.write_frame fd1 (scan_req holdup);
                (* let the scheduler pick up the slow scan first *)
                Thread.delay 0.1;
                let reply = roundtrip sock (scan_req ~deadline_ms:1 waiter) in
                Alcotest.(check string) "code" "deadline_exceeded"
                  (error_code reply);
                (match Protocol.read_frame fd1 with
                | Protocol.Frame r ->
                    Alcotest.(check bool) "slow scan still delivered" true
                      (Result.is_ok (Protocol.scan_report_of_reply r))
                | _ -> Alcotest.fail "slow scan reply lost");
                Unix.close fd1;
                Mutex.lock m;
                let ran = !seen in
                Mutex.unlock m;
                Alcotest.(check bool) "expired request never analyzed" false
                  (List.mem "expired-waiter" ran))))
    ;
    case "status counts deadline_exceeded and exposes the heartbeat" `Quick
      (fun () ->
        with_daemon (fun sock ->
            let slow =
              project "e2e-slow" [ ("a.php", "<?php echo 'x';\n") ]
            in
            with_scan_hook
              (fun (p : Phplang.Project.t) ->
                if String.equal p.Phplang.Project.name "e2e-slow" then
                  let stop = Unix.gettimeofday () +. 5. in
                  let rec spin () =
                    if Unix.gettimeofday () < stop then begin
                      Thread.delay 0.005;
                      Secflow.Deadline.check ();
                      spin ()
                    end
                  in
                  spin ())
              (fun () ->
                ignore
                  (roundtrip sock (scan_req ~deadline_ms:40 slow) : string));
            let status =
              roundtrip sock (Protocol.encode_simple_request ~op:"status" ())
            in
            match Json.parse status with
            | Error m -> Alcotest.fail m
            | Ok json ->
                let int_of path =
                  Option.bind (Json.member path json) Json.to_int_opt
                in
                Alcotest.(check (option int))
                  "deadline_exceeded counted" (Some 1)
                  (int_of "deadline_exceeded");
                Alcotest.(check bool) "heartbeat_age_s present" true
                  (match Json.member "heartbeat_age_s" json with
                  | Some (Json.Float _) | Some (Json.Int _) -> true
                  | _ -> false)))
    ;
  ]

(* ------------------------------------------------------------------ *)
(* Watch sessions: edit-delta scanning                                 *)
(* ------------------------------------------------------------------ *)

let watch_cases =
  let module Watch = Serve.Watch in
  let cold_json opts proj =
    (* reference render with every warm shortcut off: what a from-scratch
       process would print for the same bytes *)
    Phplang.Project.Parse_cache.set_enabled false;
    Fun.protect
      ~finally:(fun () -> Phplang.Project.Parse_cache.set_enabled true)
      (fun () -> Scan.run_json opts proj)
  in
  [
    case "initial scan reports everything as new" `Quick (fun () ->
        let s = Watch.create Scan.default in
        let d = Watch.scan s vuln_project in
        Alcotest.(check bool) "initial" true d.Watch.d_initial;
        Alcotest.(check (list string)) "all paths changed"
          [ "a.php"; "b.php" ] d.Watch.d_changed;
        Alcotest.(check (list string)) "nothing deleted" [] d.Watch.d_deleted;
        Alcotest.(check bool) "found something" true (d.Watch.d_total > 0);
        Alcotest.(check int) "everything is an added finding" d.Watch.d_total
          (List.length d.Watch.d_added);
        Alcotest.(check (list int)) "nothing removed" []
          (List.map (fun _ -> 0) d.Watch.d_removed);
        Alcotest.(check string) "report byte-identical to a cold scan"
          (cold_json Scan.default vuln_project)
          d.Watch.d_report);
    case "an edit produces a minimal delta, byte-identical report" `Quick
      (fun () ->
        let s = Watch.create Scan.default in
        let d0 = Watch.scan s vuln_project in
        (* fix the XSS in a.php; b.php untouched *)
        let edited =
          project "demo"
            [ ("a.php", "<?php\n$x = $_GET['q'];\necho htmlentities($x);\n");
              ("b.php",
               "<?php\n$id = $_POST['id'];\nmysql_query(\"SELECT * FROM t \
                WHERE id = $id\");\n") ]
        in
        let d = Watch.scan s edited in
        Alcotest.(check bool) "not initial" false d.Watch.d_initial;
        Alcotest.(check (list string)) "only the edited path" [ "a.php" ]
          d.Watch.d_changed;
        Alcotest.(check int) "no new findings" 0 (List.length d.Watch.d_added);
        Alcotest.(check bool) "the fixed finding is removed" true
          (List.length d.Watch.d_removed > 0);
        Alcotest.(check int) "total dropped by the removals"
          (d0.Watch.d_total - List.length d.Watch.d_removed)
          d.Watch.d_total;
        Alcotest.(check string) "report byte-identical to a cold scan"
          (cold_json Scan.default edited)
          d.Watch.d_report);
    case "a deleted file retracts its findings" `Quick (fun () ->
        let s = Watch.create Scan.default in
        let d0 = Watch.scan s vuln_project in
        let shrunk =
          project "demo"
            [ ("a.php", "<?php\n$x = $_GET['q'];\necho $x;\n") ]
        in
        let d = Watch.scan s shrunk in
        Alcotest.(check (list string)) "b.php deleted" [ "b.php" ]
          d.Watch.d_deleted;
        Alcotest.(check (list string)) "nothing changed" [] d.Watch.d_changed;
        Alcotest.(check bool) "b.php findings retracted" true
          (List.length d.Watch.d_removed > 0);
        Alcotest.(check int) "total accounts for the retractions"
          (d0.Watch.d_total - List.length d.Watch.d_removed)
          d.Watch.d_total);
    case "scan_if_changed is None on a quiescent project" `Quick (fun () ->
        let s = Watch.create Scan.default in
        Alcotest.(check bool) "first scan always fires" true
          (Watch.scan_if_changed s vuln_project <> None);
        Alcotest.(check bool) "identical bytes: no event" true
          (Watch.scan_if_changed s vuln_project = None);
        let edited =
          project "demo"
            [ ("a.php", "<?php\n$x = $_GET['q'];\necho $x; echo $x;\n");
              ("b.php",
               "<?php\n$id = $_POST['id'];\nmysql_query(\"SELECT * FROM t \
                WHERE id = $id\");\n") ]
        in
        Alcotest.(check bool) "an edit fires again" true
          (Watch.scan_if_changed s edited <> None));
    case "loop delivers the initial scan plus one delta per change" `Quick
      (fun () ->
        let s = Watch.create Scan.default in
        let versions =
          [| vuln_project;
             project "demo" [ ("a.php", "<?php\n$x = $_GET['q'];\necho $x;\n") ]
          |]
        in
        let loads = ref 0 in
        let load () =
          let p = versions.(min 1 !loads) in
          incr loads;
          p
        in
        let events = ref [] in
        Watch.loop s ~load ~poll_ms:5 ~max_events:2
          ~on_event:(fun d -> events := d :: !events)
          ();
        match List.rev !events with
        | [ first; second ] ->
            Alcotest.(check bool) "first is the initial scan" true
              first.Watch.d_initial;
            Alcotest.(check (list string)) "second saw the deletion"
              [ "b.php" ] second.Watch.d_deleted
        | es ->
            Alcotest.fail
              (Printf.sprintf "expected exactly 2 events, got %d"
                 (List.length es)));
  ]

(* One exit-code contract: what phpsafe_cli returns ([Scan.exit_code] of
   the result) and what the phpsafe_serve client returns
   ([Scan.exit_code_of_report] of the rendered document) must agree. *)
let exit_code_cases =
  let agree label opts proj =
    let tool, result = Scan.run opts proj in
    let code = Scan.exit_code result in
    Alcotest.(check int) label code
      (Scan.exit_code_of_report (Secflow.Report.to_json ~tool result));
    code
  in
  [ case "result and report agree on every V.2012 plugin" `Slow (fun () ->
        let corpus = Corpus.Catalog.generate Corpus.Plan.V2012 in
        let codes =
          List.map
            (fun (p : Corpus.Catalog.plugin_output) ->
              agree p.Corpus.Catalog.po_name Scan.default
                p.Corpus.Catalog.po_project)
            corpus.Corpus.Catalog.plugins
        in
        Alcotest.(check bool) "the corpus has findings" true (List.mem 1 codes));
    case "a failing file is 2, also with findings" `Quick (fun () ->
        let broken =
          project "broken"
            [ ("vuln.php", "<?php echo $_GET['x'];\n");
              ("broken.php", "<?php if (\n") ]
        in
        Alcotest.(check int) "status" 2 (agree "broken" Scan.default broken));
    case "the kind filter decides between 1 and 0" `Quick (fun () ->
        Alcotest.(check int) "all kinds" 1
          (agree "vuln" Scan.default vuln_project);
        Alcotest.(check int) "cmdi only" 0
          (agree "vuln, cmdi"
             { Scan.default with kind = Some Secflow.Vuln.Cmdi }
             vuln_project);
        Alcotest.(check int) "clean" 0
          (agree "clean" Scan.default clean_project)) ]

let () =
  Alcotest.run "serve"
    [ ("frame codec", frame_cases);
      ("exit codes", exit_code_cases);
      ("request decoding", decode_cases);
      ("watch sessions", watch_cases);
      ("daemon end-to-end", daemon_cases);
      ("robustness end-to-end", robustness_cases) ]
