(** phpsafe_serve — the analysis-as-a-service daemon and its client.

    [phpsafe_serve serve] runs the daemon (warm caches, batching, admission
    control; see [Serve.Daemon]).  [scan], [status], [metrics] and
    [shutdown] are the matching socket client: one [phpsafe-serve/1] frame
    out, one reply in.  A [scan]'s printed report and exit code mirror
    [phpsafe_cli --format json] byte for byte. *)

module Json = Secflow.Json

(* ------------------------------------------------------------------ *)
(* Client side                                                         *)
(* ------------------------------------------------------------------ *)

(* Transport failures, an unresolvable host included, come back as
   [Error msg] rather than exiting so the retry layer can decide. *)
let roundtrip listen payload =
  let exchange domain addr =
    let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        match Unix.connect fd addr with
        | exception Unix.Unix_error (err, _, _) ->
            Error (Printf.sprintf "cannot connect: %s" (Unix.error_message err))
        | () -> (
            match
              Serve.Protocol.write_frame fd payload;
              Serve.Protocol.read_frame fd
            with
            | Serve.Protocol.Frame reply -> Ok reply
            | Serve.Protocol.Eof -> Error "server closed the connection"
            | Serve.Protocol.Timed_out -> Error "server stopped responding"
            | Serve.Protocol.Oversized n ->
                Error (Printf.sprintf "oversized reply (%d bytes)" n)
            | exception Serve.Protocol.Closed ->
                Error "server closed the connection"
            | exception Unix.Unix_error (err, _, _) ->
                Error (Unix.error_message err)))
  in
  match listen with
  | Serve.Daemon.Unix_sock path -> exchange Unix.PF_UNIX (Unix.ADDR_UNIX path)
  | Serve.Daemon.Tcp (host, port) -> (
      match Unix.gethostbyname host with
      | exception Not_found -> Error ("cannot resolve host " ^ host)
      | h ->
          exchange Unix.PF_INET (Unix.ADDR_INET (h.Unix.h_addr_list.(0), port)))

(* exit status 3: a transport failure or a server error reply *)
let fail msg =
  prerr_endline ("phpsafe_serve: " ^ msg);
  3

(* A delivered reply is only retried when the server explicitly said "try
   again later" — [overloaded] or [shutting_down].  Anything else (a
   report, a bad_request, a deadline_exceeded) is an answer, and answers
   are never re-asked. *)
let retryable_code reply =
  match Json.parse reply with
  | Error _ -> None
  | Ok json -> (
      match Option.bind (Json.member "ok" json) Json.to_bool_opt with
      | Some false -> (
          match
            Option.bind (Json.member "error" json) (fun e ->
                Option.bind (Json.member "code" e) Json.to_string_opt)
          with
          | Some (("overloaded" | "shutting_down") as code) -> Some code
          | _ -> None)
      | _ -> None)

(* Exponential backoff with decorrelated jitter (sleep =
   min(cap, uniform(base, 3 × previous sleep))): retries spread out
   instead of synchronizing into waves when many clients hit the same
   overloaded daemon. *)
let retry_roundtrip ~retries ~retry_max_delay listen payload =
  let base = 0.05 in
  let rec go attempt prev_sleep =
    let result = roundtrip listen payload in
    let retry reason =
      let hi = Float.max (base +. 1e-9) (prev_sleep *. 3.) in
      let sleep =
        Float.min retry_max_delay (base +. Random.float (hi -. base))
      in
      Printf.eprintf "phpsafe_serve: %s; retrying in %.2fs (%d/%d)\n%!"
        reason sleep (attempt + 1) retries;
      Unix.sleepf sleep;
      go (attempt + 1) sleep
    in
    if attempt >= retries then result
    else
      match result with
      | Error msg -> retry msg
      | Ok reply -> (
          match retryable_code reply with
          | Some code -> retry (Printf.sprintf "server replied %s" code)
          | None -> result)
  in
  if retries > 0 then Random.self_init ();
  go 0 base

let run_scan listen target opts tenant id budget deadline retries
    retry_max_delay =
  let req =
    { Serve.Protocol.sr_id = id;
      sr_tenant = tenant;
      sr_project = Phplang.Project.load target;
      sr_opts = opts;
      sr_budget = budget;
      sr_deadline_ms = deadline }
  in
  match
    retry_roundtrip ~retries:(max 0 retries)
      ~retry_max_delay:(Float.max 0.05 retry_max_delay)
      listen
      (Serve.Protocol.encode_scan_request req)
  with
  | Error msg -> fail msg
  | Ok reply -> (
      match Serve.Protocol.scan_report_of_reply reply with
      | Ok report ->
          print_string report;
          print_newline ();
          Serve.Scan.exit_code_of_report report
      | Error msg -> fail msg)

let run_simple op listen id =
  match roundtrip listen (Serve.Protocol.encode_simple_request ~op ?id ()) with
  | Ok reply ->
      print_string reply;
      print_newline ();
      0
  | Error msg -> fail msg

(* ------------------------------------------------------------------ *)
(* Server side                                                         *)
(* ------------------------------------------------------------------ *)

let run_serve listen jobs max_queue max_inflight max_frame_bytes prune_age
    _no_cache io_timeout =
  let cfg =
    { (Serve.Daemon.default_config listen) with
      Serve.Daemon.jobs;
      max_queue;
      max_inflight;
      max_frame_bytes;
      prune_age_s = prune_age;
      io_timeout_s = (match io_timeout with Some s when s > 0. -> Some s | _ -> None) }
  in
  Serve.Daemon.run cfg;
  0

let run_fsck () =
  match Phplang.Store.root () with
  | None -> fail "fsck needs --cache-dir DIR (or PHPSAFE_CACHE_DIR)"
  | Some root ->
      let r = Phplang.Store.fsck () in
      Printf.printf "fsck %s: %d entries scanned, %d ok, %d quarantined\n"
        root r.Phplang.Store.fk_scanned r.Phplang.Store.fk_ok
        r.Phplang.Store.fk_quarantined;
      if r.Phplang.Store.fk_quarantined > 0 then 1 else 0

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

open Cmdliner

(* Where the daemon listens, and where the client connects: a Unix socket
   path, or TCP when --tcp HOST:PORT is given. *)
let listen =
  let socket =
    let doc = "Unix socket path of the daemon." in
    Arg.(
      value
      & opt string "/tmp/phpsafe-serve.sock"
      & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let host_port =
    let parse spec =
      let bad = Error ("expected HOST:PORT, got: " ^ spec) in
      match String.rindex_opt spec ':' with
      | None -> bad
      | Some i -> (
          let port = String.sub spec (i + 1) (String.length spec - i - 1) in
          match int_of_string_opt port with
          | Some p when p > 0 && p < 65536 -> Ok (String.sub spec 0 i, p)
          | _ -> bad)
    in
    Arg.conv' (parse, fun ppf (h, p) -> Format.fprintf ppf "%s:%d" h p)
  in
  let tcp =
    let doc = "Use TCP at $(docv) instead of a Unix socket." in
    Arg.(
      value & opt (some host_port) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)
  in
  let pick socket = function
    | Some (host, port) -> Serve.Daemon.Tcp (host, port)
    | None -> Serve.Daemon.Unix_sock socket
  in
  Term.(const pick $ socket $ tcp)

let id =
  let doc = "Request id, echoed verbatim in the reply." in
  Arg.(value & opt (some string) None & info [ "id" ] ~docv:"ID" ~doc)

let serve_cmd =
  let doc = "run the analysis daemon until a shutdown request arrives" in
  let jobs =
    let doc = "Worker-pool size (default: Sched.default_size)." in
    Arg.(value & opt (some int) None & info [ "jobs" ] ~docv:"N" ~doc)
  in
  let max_queue =
    let doc =
      "Queued-scan cap; a scan arriving over it is shed with an
       $(b,overloaded) reply."
    in
    Arg.(value & opt int 64 & info [ "max-queue" ] ~docv:"N" ~doc)
  in
  let max_inflight =
    let doc = "Batch-size cap (default: 4 × jobs)." in
    Arg.(value & opt (some int) None & info [ "max-inflight" ] ~docv:"N" ~doc)
  in
  let max_frame_bytes =
    let doc = "Per-frame size cap; oversized frames are refused." in
    Arg.(
      value
      & opt int Serve.Protocol.default_max_frame_bytes
      & info [ "max-frame-bytes" ] ~docv:"BYTES" ~doc)
  in
  let prune_age =
    let doc =
      "Prune store entries older than $(docv) seconds at batch boundaries,
       bounding the disk cache of a long-running daemon."
    in
    Arg.(
      value & opt (some float) None & info [ "prune-age" ] ~docv:"SECONDS" ~doc)
  in
  let io_timeout =
    let doc =
      "Per-syscall socket receive/send timeout in seconds; a peer silent
       (or not reading) for a whole interval loses its connection instead
       of pinning a handler thread.  0 disables."
    in
    Arg.(
      value
      & opt (some float) None
      & info [ "io-timeout" ] ~docv:"SECONDS" ~doc)
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const run_serve $ listen $ jobs $ max_queue $ max_inflight
      $ max_frame_bytes $ prune_age $ Serve.Cli.cache $ io_timeout)

let scan_cmd =
  let doc =
    "scan a PHP file or plugin directory through the daemon; prints the
     phpsafe-report/1 document (byte-identical to
     $(b,phpsafe_cli --format json)) and exits 0/1/2 like phpsafe_cli"
  in
  let tenant =
    let doc =
      "Cache-namespace label for this request ([A-Za-z0-9_.-]); tenants
       never share cache entries."
    in
    Arg.(value & opt (some string) None & info [ "tenant" ] ~docv:"NAME" ~doc)
  in
  let deadline =
    let doc =
      "End-to-end deadline for this request in milliseconds, measured from
       the daemon's admission (queue time counts).  A request past it is
       answered with a $(b,deadline_exceeded) error instead of a report."
    in
    Arg.(value & opt (some int) None & info [ "deadline" ] ~docv:"MS" ~doc)
  in
  let retries =
    let doc =
      "Retry transport failures and $(b,overloaded)/$(b,shutting_down)
       replies up to $(docv) times with exponential backoff and
       decorrelated jitter.  A delivered report or any other error reply
       is final and never retried."
    in
    Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let retry_max_delay =
    let doc = "Cap on the backoff sleep between retries, in seconds." in
    Arg.(
      value & opt float 2.0 & info [ "retry-max-delay" ] ~docv:"SECONDS" ~doc)
  in
  let exits =
    Serve.Cli.exits
    @ Cmd.Exit.info 3 ~doc:"on a transport failure or a server error reply."
      :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "scan" ~doc ~exits)
    Term.(
      const run_scan $ listen $ Serve.Cli.target $ Serve.Cli.scan_opts
      $ tenant $ id $ Serve.Cli.budget $ deadline $ retries $ retry_max_delay)

let simple_cmd name doc =
  let runner = run_simple name in
  Cmd.v (Cmd.info name ~doc) Term.(const runner $ listen $ id)

let fsck_cmd =
  let doc =
    "verify every cache entry (frame header + payload digest) and move
     corrupt ones to $(b,<cache-dir>/quarantine) for inspection; exits 1
     when anything was quarantined"
  in
  Cmd.v (Cmd.info "fsck" ~doc) Term.(const run_fsck $ Serve.Cli.cache_dir)

let cmd =
  let doc = "phpSAFE analysis-as-a-service daemon and client" in
  let info = Cmd.info "phpsafe_serve" ~version:"1.0.0" ~doc in
  Cmd.group info
    [ serve_cmd;
      scan_cmd;
      fsck_cmd;
      simple_cmd "status"
        "print the daemon's status reply (queue depth, served/shed totals,
         per-namespace store usage)";
      simple_cmd "metrics"
        "print the daemon's metrics reply (counters, gauges, latency
         histogram, per-namespace cache hit rates)";
      simple_cmd "shutdown"
        "ask the daemon to drain every queued and in-flight scan and exit" ]

let () = exit (Cmd.eval' cmd)
