(** Analysis-as-a-service daemon — see daemon.mli for the contract. *)

module Json = Secflow.Json

type listen =
  | Unix_sock of string
  | Tcp of string * int

type config = {
  listen : listen;
  jobs : int option;
  max_queue : int;
  max_inflight : int option;
  max_frame_bytes : int;
  prune_age_s : float option;
  io_timeout_s : float option;
}

let default_config listen =
  {
    listen;
    jobs = None;
    max_queue = 64;
    max_inflight = None;
    max_frame_bytes = Protocol.default_max_frame_bytes;
    prune_age_s = None;
    io_timeout_s = None;
  }

(* ------------------------------------------------------------------ *)
(* Latency histogram: total count/sum plus a ring of recent samples    *)
(* for the percentile estimates.                                       *)
(* ------------------------------------------------------------------ *)

module Latency = struct
  let ring_size = 4096

  type t = {
    mutable count : int;
    mutable sum_ms : float;
    ring : float array;
    mutable filled : int;  (* valid entries in [ring] *)
    mutable next : int;
  }

  let create () =
    { count = 0; sum_ms = 0.; ring = Array.make ring_size 0.; filled = 0;
      next = 0 }

  let record t ms =
    t.count <- t.count + 1;
    t.sum_ms <- t.sum_ms +. ms;
    t.ring.(t.next) <- ms;
    t.next <- (t.next + 1) mod ring_size;
    if t.filled < ring_size then t.filled <- t.filled + 1

  let mean t = if t.count = 0 then 0. else t.sum_ms /. float_of_int t.count
end

(* ------------------------------------------------------------------ *)
(* Jobs and reply mailboxes                                            *)
(* ------------------------------------------------------------------ *)

type box = {
  bm : Mutex.t;
  bc : Condition.t;
  mutable bv : string option;  (* the full reply payload *)
}

let box_create () = { bm = Mutex.create (); bc = Condition.create (); bv = None }

let box_put box reply =
  Mutex.lock box.bm;
  box.bv <- Some reply;
  Condition.signal box.bc;
  Mutex.unlock box.bm

let box_take box =
  Mutex.lock box.bm;
  while box.bv = None do
    Condition.wait box.bc box.bm
  done;
  let v = Option.get box.bv in
  Mutex.unlock box.bm;
  v

type job = {
  jb_req : Protocol.scan_request;
  jb_box : box;
  jb_t0 : float;  (* enqueue time, for queue+execution latency *)
  jb_deadline : float option;
      (* absolute monotonic deadline, fixed at admission so queue time
         counts against the client's budget *)
}

(* ------------------------------------------------------------------ *)
(* Server state                                                        *)
(* ------------------------------------------------------------------ *)

type t = {
  cfg : config;
  pool : Sched.pool;
  max_inflight : int;
  started : float;
  (* request queue + counters, under [m] *)
  m : Mutex.t;
  nonempty : Condition.t;
  queue : job Queue.t;
  mutable inflight : int;
  mutable served : int;
  mutable shed : int;  (* scans refused with [overloaded] *)
  mutable deadlined : int;  (* scans answered [deadline_exceeded] *)
  mutable io_timeouts : int;  (* connections dropped by SO_RCVTIMEO *)
  mutable protocol_errors : int;
  mutable shutting : bool;
  lat : Latency.t;
  (* watchdog: monotonic time of the scheduler's last observable progress
     (batch picked up, item finished, batch delivered).  Read lock-free by
     [status] so operators can tell "busy" (age ≈ one item's runtime)
     from "wedged" (age grows without bound). *)
  heartbeat : float Atomic.t;
  (* connection registry, under [cm] *)
  cm : Mutex.t;
  conns : (int, Unix.file_descr) Hashtbl.t;
  mutable conn_seq : int;
  mutable threads : Thread.t list;
  listen_fd : Unix.file_descr;
  (* per-(tenant, project) edit sessions, under [wm]: a client
     re-scanning an edited project re-parses only the changed files (see
     {!Watch}), and the parse memo makes the analysis itself warm.  Bounded: the table is dropped wholesale past
     [max_watch_sessions] — sessions are an accelerator, losing one only
     costs a cold parse. *)
  wm : Mutex.t;
  watch_sessions : (string, Watch.session) Hashtbl.t;
}

let max_watch_sessions = 64

let watch_session_of t (req : Protocol.scan_request) =
  let key =
    Option.value ~default:"" req.Protocol.sr_tenant
    ^ "\x00" ^ req.Protocol.sr_project.Phplang.Project.name
  in
  Mutex.lock t.wm;
  let session =
    match Hashtbl.find_opt t.watch_sessions key with
    | Some s -> s
    | None ->
        if Hashtbl.length t.watch_sessions >= max_watch_sessions then
          Hashtbl.reset t.watch_sessions;
        (* the daemon only refreshes sources through the session, which
           reads no analysis option: every option set shares one parse *)
        let s = Watch.create Scan.default in
        Hashtbl.replace t.watch_sessions key s;
        s
  in
  Mutex.unlock t.wm;
  session

(* ------------------------------------------------------------------ *)
(* Ops replies                                                         *)
(* ------------------------------------------------------------------ *)

let status_reply t id =
  Mutex.lock t.m;
  let queue_depth = Queue.length t.queue in
  let inflight = t.inflight in
  let served = t.served in
  let shed = t.shed in
  let deadlined = t.deadlined in
  let shutting = t.shutting in
  Mutex.unlock t.m;
  let heartbeat_age = Obs.Clock.now () -. Atomic.get t.heartbeat in
  let store_stats =
    List.map
      (fun (s : Phplang.Store.disk_stats) ->
        Json.Obj
          [ ("ns", Json.String s.Phplang.Store.ds_ns);
            ("entries", Json.Int s.Phplang.Store.ds_entries);
            ("bytes", Json.Int s.Phplang.Store.ds_bytes) ])
      (Phplang.Store.stats ())
  in
  Protocol.ok_reply ~op:"status" ?id
    [ ("uptime_s", Json.Float (Obs.Clock.now () -. t.started));
      ("jobs", Json.Int (Sched.size t.pool));
      ("max_queue", Json.Int t.cfg.max_queue);
      ("max_inflight", Json.Int t.max_inflight);
      ("queue_depth", Json.Int queue_depth);
      ("inflight", Json.Int inflight);
      ("served", Json.Int served);
      ("overloaded", Json.Int shed);
      ("deadline_exceeded", Json.Int deadlined);
      ("heartbeat_age_s", Json.Float heartbeat_age);
      ("draining", Json.Bool shutting);
      ("store",
       Json.Obj
         [ ("enabled", Json.Bool (Phplang.Store.enabled ()));
           ("namespaces", Json.List store_stats) ]) ]

let metrics_reply t id =
  Mutex.lock t.m;
  let counters =
    [ ("serve.requests.scan", t.served + t.inflight + Queue.length t.queue);
      ("serve.served", t.served);
      ("serve.overloaded", t.shed);
      ("serve.deadline_exceeded", t.deadlined);
      ("serve.io_timeouts", t.io_timeouts);
      ("serve.protocol_errors", t.protocol_errors) ]
  in
  let queue_depth = Queue.length t.queue in
  let inflight = t.inflight in
  let lat_count = t.lat.Latency.count in
  let lat_mean = Latency.mean t.lat in
  (* percentiles over the retained window *)
  let window = List.init t.lat.Latency.filled (Array.get t.lat.Latency.ring) in
  let lat_p50 = Obs.percentile window 50. in
  let lat_p99 = Obs.percentile window 99. in
  Mutex.unlock t.m;
  let cache =
    List.map
      (fun (s : Phplang.Store.stats) ->
        ( s.Phplang.Store.ns,
          Json.Obj
            [ ("hits", Json.Int s.Phplang.Store.hits);
              ("misses", Json.Int s.Phplang.Store.misses);
              ("stores", Json.Int s.Phplang.Store.stores);
              ("write_errors", Json.Int s.Phplang.Store.write_errors) ] ))
      (Phplang.Store.counters ())
  in
  Protocol.ok_reply ~op:"metrics" ?id
    [ ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) counters));
      ("gauges",
       Json.Obj
         [ ("serve.queue.depth", Json.Int queue_depth);
           ("serve.inflight", Json.Int inflight);
           ("serve.heartbeat.age_s",
            Json.Float (Obs.Clock.now () -. Atomic.get t.heartbeat)) ]);
      ("latency_ms",
       Json.Obj
         [ ("count", Json.Int lat_count);
           ("mean", Json.Float lat_mean);
           ("p50", Json.Float lat_p50);
           ("p99", Json.Float lat_p99) ]);
      ("cache", Json.Obj cache) ]

(* ------------------------------------------------------------------ *)
(* Scan execution: the scheduler thread                                *)
(* ------------------------------------------------------------------ *)

(* One work item, run inside a [Sched] worker domain: the tenant prefix
   scopes every cache namespace the analyzers touch for this request, and
   the deadline scopes the wall-clock fuel the analyzers' cooperative
   checks consume.  Heartbeat updates bracket the item so the watchdog
   gauge reflects per-item progress, not just per-batch. *)
let execute_job t (job : job) =
  Atomic.set t.heartbeat (Obs.Clock.now ());
  let req = job.jb_req in
  Fun.protect
    ~finally:(fun () -> Atomic.set t.heartbeat (Obs.Clock.now ()))
    (fun () ->
      Secflow.Deadline.with_deadline job.jb_deadline (fun () ->
          Phplang.Store.with_tenant req.Protocol.sr_tenant (fun () ->
              (* warm-up: re-parse only the files changed since this
                 (tenant, project)'s last scan, through the parse memo;
                 the analysis below hits it.  The
                 session lock only covers this refresh — analyses still
                 fan out in parallel. *)
              let session = watch_session_of t req in
              ignore
                (Watch.refresh_sources session req.Protocol.sr_project
                  : string list * string list);
              Protocol.scan_reply ?id:req.Protocol.sr_id
                ~report:
                  (Scan.run_json req.Protocol.sr_opts req.Protocol.sr_project)
                ())))

let same_budget (a : job) (b : job) =
  a.jb_req.Protocol.sr_budget = b.jb_req.Protocol.sr_budget

let job_expired now (j : job) =
  match j.jb_deadline with Some d -> now > d | None -> false

(* Under [t.m]: a queued request already past its deadline is shed without
   running — the client's time budget covers queue time by design. *)
let shed_expired t (j : job) =
  t.deadlined <- t.deadlined + 1;
  Obs.incr "serve.deadline_exceeded";
  box_put j.jb_box
    (Protocol.error_reply ~op:"scan" ?id:j.jb_req.Protocol.sr_id
       ~code:"deadline_exceeded"
       ~msg:"deadline expired while the request was queued" ())

let scheduler_loop t =
  let rec loop () =
    Mutex.lock t.m;
    while Queue.is_empty t.queue && not t.shutting do
      Condition.wait t.nonempty t.m
    done;
    if Queue.is_empty t.queue then begin
      (* shutting down with nothing left to drain *)
      Mutex.unlock t.m;
      ()
    end
    else begin
      (* batch: longest same-budget prefix of the queue, capped at
         [max_inflight] — budgets are process-global, so one [Budget.set]
         must cover the whole fan-out.  Jobs already past their deadline
         are shed as they surface, whatever their budget: they never run,
         so they cannot break the batch's budget invariant. *)
      let now = Obs.Clock.now () in
      let rec first_live () =
        if Queue.is_empty t.queue then None
        else begin
          let j = Queue.pop t.queue in
          if job_expired now j then begin
            shed_expired t j;
            first_live ()
          end
          else Some j
        end
      in
      match first_live () with
      | None ->
          Mutex.unlock t.m;
          loop ()
      | Some first ->
          Atomic.set t.heartbeat now;
          let batch = ref [ first ] in
          let n = ref 1 in
          let stop = ref false in
          while
            (not !stop)
            && !n < t.max_inflight
            && not (Queue.is_empty t.queue)
          do
            let next = Queue.peek t.queue in
            if job_expired now next then shed_expired t (Queue.pop t.queue)
            else if same_budget next first then begin
              batch := Queue.pop t.queue :: !batch;
              incr n
            end
            else stop := true
          done;
          let batch = List.rev !batch in
          t.inflight <- !n;
          let depth = Queue.length t.queue in
          Mutex.unlock t.m;
          Obs.set_gauge "serve.queue.depth" (float_of_int depth);
          Obs.set_gauge "serve.inflight" (float_of_int !n);
          Secflow.Budget.set first.jb_req.Protocol.sr_budget;
          let results =
            Obs.span "serve.batch" @@ fun () ->
            Sched.map_result ~pool:t.pool (execute_job t) batch
          in
          let now = Obs.Clock.now () in
          Atomic.set t.heartbeat now;
          Mutex.lock t.m;
          t.inflight <- 0;
          List.iter2
            (fun job result ->
              t.served <- t.served + 1;
              Latency.record t.lat ((now -. job.jb_t0) *. 1000.);
              let reply =
                match result with
                | Sched.Done reply -> reply
                | Sched.Cancelled ->
                    (* the analyzers' cooperative deadline check fired *)
                    t.deadlined <- t.deadlined + 1;
                    Obs.incr "serve.deadline_exceeded";
                    Protocol.error_reply ~op:"scan"
                      ?id:job.jb_req.Protocol.sr_id ~code:"deadline_exceeded"
                      ~msg:"deadline exceeded during analysis" ()
                | Sched.Crashed (e, _bt) ->
                    (* the analyzers have their own crash barriers, so this
                       is a serving-layer bug or an out-of-resources
                       condition; the client still gets a structured
                       reply *)
                    Protocol.error_reply ~op:"scan"
                      ?id:job.jb_req.Protocol.sr_id ~code:"internal"
                      ~msg:("scan failed: " ^ Printexc.to_string e)
                      ()
              in
              box_put job.jb_box reply)
            batch results;
          Mutex.unlock t.m;
          Obs.add "serve.requests.scan" !n;
          Obs.incr "serve.batches";
      (* bound the disk tier between batches, where nothing is executing *)
      (match t.cfg.prune_age_s with
      | Some age when Phplang.Store.enabled () ->
          ignore (Phplang.Store.prune ~max_age_s:age () : int)
      | _ -> ());
      (* re-fit an auto-sized pool to the current cgroup CPU quota while
         no map is in flight — a daemon in a resized container tracks it
         instead of keeping its start-time size forever *)
      Sched.refresh t.pool;
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Connection handling                                                 *)
(* ------------------------------------------------------------------ *)

(* Admission control: run under [t.m].  A scan over capacity is shed with
   a structured reply — the queue never grows past [max_queue]. *)
let admit t req =
  Mutex.lock t.m;
  let verdict =
    if t.shutting then
      Error
        (Protocol.error_reply ~op:"scan" ?id:req.Protocol.sr_id
           ~code:"shutting_down" ~msg:"server is draining; retry elsewhere"
           ())
    else if Queue.length t.queue >= t.cfg.max_queue then begin
      t.shed <- t.shed + 1;
      Error
        (Protocol.error_reply ~op:"scan" ?id:req.Protocol.sr_id
           ~code:"overloaded"
           ~msg:
             (Printf.sprintf "queue full (%d pending); retry later"
                t.cfg.max_queue)
           ())
    end
    else begin
      let t0 = Obs.Clock.now () in
      let job =
        {
          jb_req = req;
          jb_box = box_create ();
          jb_t0 = t0;
          jb_deadline =
            Option.map
              (fun ms -> t0 +. (float_of_int ms /. 1000.))
              req.Protocol.sr_deadline_ms;
        }
      in
      Queue.push job t.queue;
      Condition.signal t.nonempty;
      Ok job
    end
  in
  Mutex.unlock t.m;
  verdict

let initiate_shutdown t =
  Mutex.lock t.m;
  t.shutting <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.m

let count_protocol_error t =
  Mutex.lock t.m;
  t.protocol_errors <- t.protocol_errors + 1;
  Mutex.unlock t.m

let count_io_timeout t =
  Mutex.lock t.m;
  t.io_timeouts <- t.io_timeouts + 1;
  Mutex.unlock t.m;
  Obs.incr "serve.io_timeouts"

let handle_connection t conn_id fd =
  let closed = ref false in
  let close () =
    if not !closed then begin
      closed := true;
      Mutex.lock t.cm;
      Hashtbl.remove t.conns conn_id;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Mutex.unlock t.cm
    end
  in
  let send payload =
    try
      Protocol.write_frame fd payload;
      true
    with Protocol.Closed | Unix.Unix_error _ ->
      (* mid-request disconnect: drop the reply, keep the server alive *)
      close ();
      false
  in
  let rec serve () =
    if !closed then ()
    else
      match Protocol.read_frame ~max_bytes:t.cfg.max_frame_bytes fd with
      | Protocol.Eof -> close ()
      | Protocol.Timed_out ->
          (* slow-loris peer: silent past SO_RCVTIMEO mid-frame (or
             between frames).  The stream can't be resynchronized, and a
             reply could block on the same dead peer — just close. *)
          count_io_timeout t;
          close ()
      | Protocol.Oversized len ->
          (* the stream can't be resynchronized past an unread body, so
             refuse and close *)
          count_protocol_error t;
          ignore
            (send
               (Protocol.error_reply ~op:"" ~code:"oversized"
                  ~msg:
                    (Printf.sprintf
                       "frame of %d bytes exceeds the %d-byte limit" len
                       t.cfg.max_frame_bytes)
                  ()));
          close ()
      | Protocol.Frame payload -> (
          match Protocol.decode_request payload with
          | Error e ->
              count_protocol_error t;
              if
                send
                  (Protocol.error_reply ~op:e.Protocol.e_op
                     ?id:e.Protocol.e_id ~code:e.Protocol.e_code
                     ~msg:e.Protocol.e_msg ())
              then serve ()
          | Ok (Protocol.Status id) ->
              if send (status_reply t id) then serve ()
          | Ok (Protocol.Metrics id) ->
              if send (metrics_reply t id) then serve ()
          | Ok (Protocol.Shutdown id) ->
              initiate_shutdown t;
              if send (Protocol.ok_reply ~op:"shutdown" ?id []) then serve ()
          | Ok (Protocol.Scan req) -> (
              match admit t req with
              | Error reply -> if send reply then serve ()
              | Ok job ->
                  (* the scheduler always delivers, even while draining *)
                  let reply = box_take job.jb_box in
                  if send reply then serve ()))
  in
  (try serve ()
   with _ ->
     (* no exception may take the daemon down with it *)
     ());
  close ()

(* ------------------------------------------------------------------ *)
(* Listener                                                            *)
(* ------------------------------------------------------------------ *)

(* The accept backlog follows [max_queue]: connections the admission
   control would shed anyway gain nothing from queueing in the kernel
   first (floored so tiny-queue test configs still accept connection
   bursts).  Returns the socket and the address to report.  A Unix
   socket's file appears at [bind], before [listen], and clients wait for
   that file, so it is bound under a sibling temp name and renamed into
   place only once it accepts connections. *)
let make_listener ~backlog = function
  | Unix_sock path ->
      let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try
         (try Unix.unlink tmp with Unix.Unix_error _ -> ());
         Unix.bind fd (Unix.ADDR_UNIX tmp);
         Unix.listen fd backlog;
         Unix.rename tmp path
       with e ->
         (try Unix.unlink tmp with Unix.Unix_error _ -> ());
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e);
      (fd, Unix.ADDR_UNIX path)
  | Tcp (host, port) ->
      let addr = (Unix.gethostbyname host).Unix.h_addr_list.(0) in
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (addr, port));
      Unix.listen fd backlog;
      (fd, Unix.getsockname fd)

(* Per-syscall receive/send timeouts on an accepted connection: a peer
   that goes silent (or stops reading) for a whole interval can no longer
   pin this connection's handler thread.  Best-effort — a platform
   without the option just runs untimed, as before. *)
let arm_io_timeouts cfg fd =
  match cfg.io_timeout_s with
  | Some s when s > 0. -> (
      try
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO s;
        Unix.setsockopt_float fd Unix.SO_SNDTIMEO s
      with Unix.Unix_error _ | Invalid_argument _ -> ())
  | _ -> ()

let accept_loop t =
  let rec loop () =
    let shutting =
      Mutex.lock t.m;
      let s = t.shutting in
      Mutex.unlock t.m;
      s
    in
    if not shutting then begin
      (* short select timeout so a shutdown requested on some connection
         is noticed without relying on close() waking accept() *)
      match Unix.select [ t.listen_fd ] [] [] 0.2 with
      | [], _, _ -> loop ()
      | _ -> (
          match Unix.accept ~cloexec:true t.listen_fd with
          | fd, _ ->
              arm_io_timeouts t.cfg fd;
              Mutex.lock t.cm;
              t.conn_seq <- t.conn_seq + 1;
              let conn_id = t.conn_seq in
              Hashtbl.replace t.conns conn_id fd;
              let th = Thread.create (handle_connection t conn_id) fd in
              t.threads <- th :: t.threads;
              Mutex.unlock t.cm;
              loop ()
          | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> ()
          | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> loop ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    end
  in
  loop ()

let run ?on_ready cfg =
  (* a client hanging up mid-reply must surface as EPIPE, not kill us *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen_fd, addr =
    make_listener ~backlog:(max 16 cfg.max_queue) cfg.listen
  in
  (* the listener is bound and accepting: tell the embedder (tests bind
     TCP port 0 and need the real port back) *)
  Option.iter (fun f -> f addr) on_ready;
  (* an explicit --jobs pins the pool; an auto-sized one is re-fitted to
     the cgroup CPU quota between batches (Sched.refresh) *)
  let pool = Sched.create ?size:cfg.jobs () in
  let jobs = Sched.size pool in
  let t =
    {
      cfg;
      pool;
      max_inflight =
        (match cfg.max_inflight with Some n -> max 1 n | None -> 4 * jobs);
      started = Obs.Clock.now ();
      m = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      inflight = 0;
      served = 0;
      shed = 0;
      deadlined = 0;
      io_timeouts = 0;
      protocol_errors = 0;
      shutting = false;
      lat = Latency.create ();
      heartbeat = Atomic.make (Obs.Clock.now ());
      cm = Mutex.create ();
      conns = Hashtbl.create 16;
      conn_seq = 0;
      threads = [];
      listen_fd;
      wm = Mutex.create ();
      watch_sessions = Hashtbl.create 16;
    }
  in
  Obs.set_gauge "serve.jobs" (float_of_int jobs);
  let scheduler = Thread.create scheduler_loop t in
  accept_loop t;
  (* draining: the scheduler finishes every queued scan and exits *)
  Thread.join scheduler;
  (* wake connections idling in read so their threads can exit; replies
     already in flight still go out — SHUTDOWN_RECEIVE leaves the write
     half open *)
  Mutex.lock t.cm;
  Hashtbl.iter
    (fun _ fd ->
      try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    t.conns;
  let threads = t.threads in
  Mutex.unlock t.cm;
  List.iter Thread.join threads;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  match cfg.listen with
  | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ()
