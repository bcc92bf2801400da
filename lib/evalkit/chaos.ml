(* E15 — deterministic service-layer chaos.  See chaos.mli. *)

type row = {
  cr_scenario : string;
  cr_report : int;
  cr_deadline : int;
  cr_overloaded : int;
  cr_transport : int;
  cr_other : int;
}

type report = {
  ch_seed : int;
  ch_rounds : int;
  ch_jobs : int;
  ch_requests : int;
  ch_rows : row list;
  ch_crashes : int;
  ch_unterminated : int;
  ch_identity_ok : bool;
  ch_overshoot_p99_ms : float;
  ch_tolerance_ms : float;
}

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let project name files =
  Phplang.Project.make ~name
    (List.map (fun (path, source) -> { Phplang.Project.path; source }) files)

let vuln_project =
  project "e15-vuln"
    [ ("index.php", "<?php\n$x = $_GET['q'];\necho $x;\n");
      ("db.php",
       "<?php\n$id = $_POST['id'];\nmysql_query(\"SELECT * FROM t WHERE id \
        = $id\");\n") ]

let plain_project = project "e15-plain" [ ("ok.php", "<?php echo 'ok';\n") ]
let slow_project = project "e15-slow" [ ("s.php", "<?php echo 's';\n") ]
let disk_project = project "e15-disk" [ ("d.php", "<?php\necho $_GET['d'];\n") ]

let scan_payload ?deadline_ms ~id proj =
  Serve.Protocol.encode_scan_request
    { Serve.Protocol.sr_id = Some id;
      sr_tenant = None;
      sr_project = proj;
      sr_opts = Serve.Scan.default;
      sr_budget = Secflow.Budget.default;
      sr_deadline_ms = deadline_ms }

(* the scan hook that makes "e15-slow*" projects burn wall-clock while
   still honouring cooperative cancellation, exactly like a long analysis
   hitting its file/pass-boundary checks *)
let slow_hook (p : Phplang.Project.t) =
  let name = p.Phplang.Project.name in
  let pre = "e15-slow" in
  if
    String.length name >= String.length pre
    && String.equal (String.sub name 0 (String.length pre)) pre
  then begin
    let stop = Obs.Clock.now () +. 2.0 in
    while Obs.Clock.now () < stop do
      Thread.delay 0.005;
      Secflow.Deadline.check ()
    done
  end

(* ------------------------------------------------------------------ *)
(* Client side                                                         *)
(* ------------------------------------------------------------------ *)

(* every request terminates in exactly one of these *)
type outcome =
  | O_report of bool  (** delivered report; payload byte-identical? *)
  | O_deadline
  | O_overloaded
  | O_transport
  | O_other

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let classify ~expected reply =
  match Serve.Protocol.scan_report_of_reply reply with
  | Ok report -> O_report (String.equal report expected)
  | Error _ -> (
      match Secflow.Json.parse reply with
      | Error _ -> O_other
      | Ok json -> (
          match
            Option.bind
              (Option.bind (Secflow.Json.member "error" json)
                 (Secflow.Json.member "code"))
              Secflow.Json.to_string_opt
          with
          | Some "deadline_exceeded" -> O_deadline
          | Some ("overloaded" | "shutting_down") -> O_overloaded
          | Some _ | None -> O_other))

(* One request whose bytes reach the daemon via [write]; the reply (or its
   absence) is classified. *)
let exchange ~sock ~expected write =
  match Scratch.connect sock with
  | exception _ -> O_transport
  | fd -> (
      Fun.protect ~finally:(fun () -> close_quietly fd) @@ fun () ->
      match
        write fd;
        Serve.Protocol.read_frame fd
      with
      | Serve.Protocol.Frame reply -> classify ~expected reply
      | Serve.Protocol.Eof | Serve.Protocol.Oversized _ -> O_transport
      | Serve.Protocol.Timed_out -> O_other
      | exception Serve.Protocol.Closed -> O_transport
      | exception Unix.Unix_error _ -> O_transport)

let frame_bytes payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_uint8 b 0 ((n lsr 24) land 0xff);
  Bytes.set_uint8 b 1 ((n lsr 16) land 0xff);
  Bytes.set_uint8 b 2 ((n lsr 8) land 0xff);
  Bytes.set_uint8 b 3 (n land 0xff);
  Bytes.blit_string payload 0 b 4 n;
  b

let write_slice fd b off len =
  let p = ref off in
  while !p < off + len do
    p := !p + Unix.write fd b !p (off + len - !p)
  done

(* the per-round liveness probe: a daemon that can still answer [status]
   has not crashed *)
let alive sock =
  match Scratch.connect sock with
  | exception _ -> false
  | fd -> (
      Fun.protect ~finally:(fun () -> close_quietly fd) @@ fun () ->
      match
        Serve.Protocol.write_frame fd
          (Serve.Protocol.encode_simple_request ~op:"status" ());
        Serve.Protocol.read_frame fd
      with
      | Serve.Protocol.Frame reply -> (
          match Secflow.Json.parse reply with
          | Ok json ->
              Option.bind (Secflow.Json.member "ok" json)
                Secflow.Json.to_bool_opt
              = Some true
          | Error _ -> false)
      | _ -> false
      | exception _ -> false)

(* ------------------------------------------------------------------ *)
(* The suite                                                           *)
(* ------------------------------------------------------------------ *)

let scenario_order =
  [ "clean-vuln"; "clean-plain"; "trickle"; "mid-frame-cut"; "stall";
    "slow-deadline"; "disk-fault"; "overload-shed" ]

let io_timeout_s = 0.25
let tolerance_ms = 500.

let run ?(seed = 1105) ?(rounds = 4) ~jobs () : report =
  (* identity baselines come from the in-process encoder, computed before
     the harness redirects the store to its private directory *)
  let expected_vuln = Serve.Scan.run_json Serve.Scan.default vuln_project in
  let expected_plain = Serve.Scan.run_json Serve.Scan.default plain_project in
  let expected_slow = Serve.Scan.run_json Serve.Scan.default slow_project in
  let expected_disk = Serve.Scan.run_json Serve.Scan.default disk_project in
  Scratch.with_store "e15-cache" @@ fun _ ->
  Scratch.with_dir "e15-sock" @@ fun sock_dir ->
  let sock_a = Filename.concat sock_dir "e15-a.sock" in
  let sock_b = Filename.concat sock_dir "e15-b.sock" in
  let outcomes = ref [] in
  let record scenario o = outcomes := (scenario, o) :: !outcomes in
  let overshoots = ref [] in
  let crashes = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      Serve.Scan.set_before_analyze_hook None;
      Phplang.Store.set_fault_hook None)
  @@ fun () ->
  Serve.Scan.set_before_analyze_hook (Some slow_hook);

  (* ---- phase A: one daemon, every per-connection scenario ---- *)
  let cfg_a =
    { (Serve.Daemon.default_config (Serve.Daemon.Unix_sock sock_a)) with
      Serve.Daemon.jobs = Some jobs;
      max_queue = 16;
      io_timeout_s = Some io_timeout_s }
  in
  Scratch.with_daemon cfg_a sock_a (fun () ->
     for round = 0 to rounds - 1 do
       let rng = Corpus.Prng.split (Corpus.Prng.create seed) ~salt:round in
       (* plain frame round-trips: the fault-free control group *)
       record "clean-vuln"
         (exchange ~sock:sock_a ~expected:expected_vuln (fun fd ->
              Serve.Protocol.write_frame fd
                (scan_payload ~id:"clean-vuln" vuln_project)));
       record "clean-plain"
         (exchange ~sock:sock_a ~expected:expected_plain (fun fd ->
              Serve.Protocol.write_frame fd
                (scan_payload ~id:"clean-plain" plain_project)));
       (* a valid frame delivered one byte at a time still scans *)
       record "trickle"
         (exchange ~sock:sock_a ~expected:expected_vuln (fun fd ->
              let b =
                frame_bytes (scan_payload ~id:"trickle" vuln_project)
              in
              for i = 0 to Bytes.length b - 1 do
                write_slice fd b i 1
              done));
       (* a frame cut mid-payload terminates as a transport error *)
       (record "mid-frame-cut"
          (match Scratch.connect sock_a with
          | exception _ -> O_transport
          | fd ->
              let b =
                frame_bytes (scan_payload ~id:"cut" vuln_project)
              in
              let keep = 5 + Corpus.Prng.int rng 24 in
              (try write_slice fd b 0 (min keep (Bytes.length b))
               with Unix.Unix_error _ -> ());
              close_quietly fd;
              O_transport));
       (* a peer silent past io_timeout loses the connection — and only
          the connection *)
       record "stall"
         (exchange ~sock:sock_a ~expected:"" (fun fd ->
              let b = frame_bytes (scan_payload ~id:"stall" vuln_project) in
              write_slice fd b 0 (4 + Corpus.Prng.int rng 8);
              Thread.delay (io_timeout_s +. 0.35)));
       (* a deadlined request against an artificially slow scan *)
       let deadline_ms = 30 + Corpus.Prng.int rng 31 in
       let t0 = Obs.Clock.now () in
       let o =
         exchange ~sock:sock_a ~expected:expected_slow (fun fd ->
             Serve.Protocol.write_frame fd
               (scan_payload ~deadline_ms ~id:"slow" slow_project))
       in
       (match o with
       | O_deadline ->
           let elapsed_ms = (Obs.Clock.now () -. t0) *. 1000. in
           overshoots :=
             max 0. (elapsed_ms -. float_of_int deadline_ms) :: !overshoots
       | _ -> ());
       record "slow-deadline" o;
       (* every cache write failing with ENOSPC must not change the reply *)
       Phplang.Store.set_fault_hook
         (Some
            (fun op _path ->
              if op = `Write then
                raise (Unix.Unix_error (Unix.ENOSPC, "write", ""))));
       Fun.protect
         ~finally:(fun () -> Phplang.Store.set_fault_hook None)
         (fun () ->
           record "disk-fault"
             (exchange ~sock:sock_a ~expected:expected_disk (fun fd ->
                  Serve.Protocol.write_frame fd
                    (scan_payload ~id:"disk" disk_project))));
       if not (alive sock_a) then incr crashes
     done);

  (* ---- phase B: a zero-queue daemon sheds every scan ---- *)
  let cfg_b =
    { (Serve.Daemon.default_config (Serve.Daemon.Unix_sock sock_b)) with
      Serve.Daemon.jobs = Some jobs;
      max_queue = 0 }
  in
  Scratch.with_daemon cfg_b sock_b (fun () ->
     for _ = 1 to rounds do
       record "overload-shed"
         (exchange ~sock:sock_b ~expected:expected_plain (fun fd ->
              Serve.Protocol.write_frame fd
                (scan_payload ~id:"shed" plain_project)))
     done;
     if not (alive sock_b) then incr crashes);

  (* ---- tally ---- *)
  let rows =
    List.map
      (fun scenario ->
        List.fold_left
          (fun row (s, o) ->
            if not (String.equal s scenario) then row
            else
              match o with
              | O_report _ -> { row with cr_report = row.cr_report + 1 }
              | O_deadline -> { row with cr_deadline = row.cr_deadline + 1 }
              | O_overloaded ->
                  { row with cr_overloaded = row.cr_overloaded + 1 }
              | O_transport ->
                  { row with cr_transport = row.cr_transport + 1 }
              | O_other -> { row with cr_other = row.cr_other + 1 })
          { cr_scenario = scenario; cr_report = 0; cr_deadline = 0;
            cr_overloaded = 0; cr_transport = 0; cr_other = 0 }
          !outcomes)
      scenario_order
  in
  let identity_ok =
    List.for_all (function _, O_report ok -> ok | _ -> true) !outcomes
  in
  {
    ch_seed = seed;
    ch_rounds = rounds;
    ch_jobs = jobs;
    ch_requests = List.length !outcomes;
    ch_rows = rows;
    ch_crashes = !crashes;
    ch_unterminated = List.fold_left (fun n r -> n + r.cr_other) 0 rows;
    ch_identity_ok = identity_ok;
    ch_overshoot_p99_ms = Obs.percentile !overshoots 99.;
    ch_tolerance_ms = tolerance_ms;
  }

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let outcome_table (r : report) =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "%-14s %7s %9s %11s %10s %6s\n" "scenario" "report"
       "deadline" "overloaded" "transport" "other");
  List.iter
    (fun row ->
      Buffer.add_string b
        (Printf.sprintf "%-14s %7d %9d %11d %10d %6d\n" row.cr_scenario
           row.cr_report row.cr_deadline row.cr_overloaded row.cr_transport
           row.cr_other))
    r.ch_rows;
  let t f = List.fold_left (fun n row -> n + f row) 0 r.ch_rows in
  Buffer.add_string b
    (Printf.sprintf "%-14s %7d %9d %11d %10d %6d\n" "total"
       (t (fun r -> r.cr_report))
       (t (fun r -> r.cr_deadline))
       (t (fun r -> r.cr_overloaded))
       (t (fun r -> r.cr_transport))
       (t (fun r -> r.cr_other)));
  Buffer.contents b

let print ppf (r : report) =
  Format.fprintf ppf "@.== E15: service-layer chaos (phpsafe_serve) ==@.";
  Format.fprintf ppf
    "seed %d, %d rounds, %d requests, %d worker domains, io timeout %.2fs@."
    r.ch_seed r.ch_rounds r.ch_requests r.ch_jobs io_timeout_s;
  Format.pp_print_string ppf (outcome_table r);
  Format.fprintf ppf
    "crashes: %d   unterminated: %d   report identity: %s@." r.ch_crashes
    r.ch_unterminated
    (if r.ch_identity_ok then "byte-identical" else "MISMATCH");
  Format.fprintf ppf
    "deadline overshoot p99: %.1fms (tolerance %.0fms)   (cache and socket \
     dirs are temporary; removed)@."
    r.ch_overshoot_p99_ms r.ch_tolerance_ms
