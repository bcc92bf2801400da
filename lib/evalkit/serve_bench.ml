(** E14 — sustained-throughput serving (beyond the paper).

    The paper's tools are batch programs: every scan pays process startup,
    configuration loading and cold caches.  The [phpsafe_serve] daemon
    amortizes all three; this experiment quantifies the serving path
    end-to-end over its real wire protocol:

    - an in-process daemon ([Serve.Daemon.run] on its own thread) listens
      on a Unix socket in a temporary directory, with a fresh temporary
      cache directory ({!Phplang.Store});
    - [clients] client threads issue one [scan] request per V.2012 corpus
      plugin over [phpsafe-serve/1] frames — encode, connect, frame,
      decode, exactly what an external client pays;
    - the {e cold} pass runs against the empty cache, the {e warm} pass
      repeats the same requests against whatever the cold pass populated
      (disk store and in-process parse memo both hot);
    - per-pass: wall seconds, requests per second, client-observed p50 and
      p99 latency (nearest-rank, milliseconds).

    Cache and socket directories are temporary and removed; the store root
    active before the experiment is restored. *)

type pass = {
  sp_wall_s : float;
  sp_rps : float;  (** requests per second over the pass *)
  sp_p50_ms : float;  (** client-observed median latency *)
  sp_p99_ms : float;
}

type report = {
  sb_requests : int;  (** scan requests per pass (one per plugin) *)
  sb_clients : int;
  sb_jobs : int;  (** daemon worker-pool size *)
  sb_cold : pass;
  sb_warm : pass;
}

(* ------------------------------------------------------------------ *)
(* Client side                                                         *)
(* ------------------------------------------------------------------ *)

let request_of (p : Corpus.Catalog.plugin_output) =
  Serve.Protocol.encode_scan_request
    { Serve.Protocol.sr_id = Some p.Corpus.Catalog.po_name;
      sr_tenant = None;
      sr_project = p.Corpus.Catalog.po_project;
      sr_opts = Serve.Scan.default;
      sr_budget = Secflow.Budget.default;
      sr_deadline_ms = None }

(* One pass: [clients] threads stripe the request array; each request is a
   full frame round-trip on that thread's own connection. *)
let run_pass ~sock ~clients requests =
  let n = Array.length requests in
  let lats = Array.make n 0. in
  let failure = Atomic.make None in
  let worker c =
    match Scratch.connect sock with
    | exception e -> Atomic.set failure (Some e)
    | fd ->
        Fun.protect
          ~finally:(fun () ->
            try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            try
              let i = ref c in
              while !i < n do
                let t0 = Obs.Clock.now () in
                Serve.Protocol.write_frame fd requests.(!i);
                (match Serve.Protocol.read_frame fd with
                | Serve.Protocol.Frame reply -> (
                    match Serve.Protocol.scan_report_of_reply reply with
                    | Ok _ -> ()
                    | Error msg -> failwith ("scan error reply: " ^ msg))
                | Serve.Protocol.Eof | Serve.Protocol.Oversized _
                | Serve.Protocol.Timed_out ->
                    failwith "connection lost mid-pass");
                lats.(!i) <- (Obs.Clock.now () -. t0) *. 1000.;
                i := !i + clients
              done
            with e -> Atomic.set failure (Some e))
  in
  let t0 = Obs.Clock.now () in
  let threads = List.init clients (fun c -> Thread.create worker c) in
  List.iter Thread.join threads;
  let wall = Obs.Clock.now () -. t0 in
  (match Atomic.get failure with
  | Some e -> raise (Failure ("serve_bench: " ^ Printexc.to_string e))
  | None -> ());
  let lats = Array.to_list lats in
  {
    sp_wall_s = wall;
    sp_rps = (if wall > 0. then float_of_int n /. wall else 0.);
    sp_p50_ms = Obs.percentile lats 50.;
    sp_p99_ms = Obs.percentile lats 99.;
  }

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

let measure ?(clients = 4) ?corpus () : report =
  let corpus =
    match corpus with Some c -> c | None -> Corpus.generate Corpus.Plan.V2012
  in
  let requests =
    Array.of_list (List.map request_of corpus.Corpus.plugins)
  in
  Scratch.with_store "e14-cache" @@ fun _ ->
  Scratch.with_dir "e14-sock" @@ fun sock_dir ->
  let sock = Filename.concat sock_dir "e14.sock" in
  let cfg =
    { (Serve.Daemon.default_config (Serve.Daemon.Unix_sock sock)) with
      Serve.Daemon.max_queue = max 64 clients }
  in
  Scratch.with_daemon cfg sock @@ fun () ->
  let cold = run_pass ~sock ~clients requests in
  let warm = run_pass ~sock ~clients requests in
  {
    sb_requests = Array.length requests;
    sb_clients = clients;
    sb_jobs = Sched.default_size ();
    sb_cold = cold;
    sb_warm = warm;
  }

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let print ppf (r : report) =
  Format.fprintf ppf
    "@.== E14: sustained-throughput serving (phpsafe_serve) ==@.";
  Format.fprintf ppf
    "%d scan requests/pass, %d client connections, %d worker domains@."
    r.sb_requests r.sb_clients r.sb_jobs;
  Format.fprintf ppf "%-6s %9s %9s %10s %10s@." "pass" "wall" "req/s" "p50"
    "p99";
  let line name p =
    Format.fprintf ppf "%-6s %8.2fs %9.1f %8.1fms %8.1fms@." name p.sp_wall_s
      p.sp_rps p.sp_p50_ms p.sp_p99_ms
  in
  line "cold" r.sb_cold;
  line "warm" r.sb_warm;
  Format.fprintf ppf
    "warm speedup: %.1fx   (cache and socket dirs are temporary; removed)@."
    (if r.sb_warm.sp_wall_s > 0. then
       r.sb_cold.sp_wall_s /. r.sb_warm.sp_wall_s
     else nan)
