(** [serve-warm] — an in-process [Serve.Daemon] (pool 1) on a Unix socket
    in a scratch directory, with two client connections sending
    [phpsafe-serve/1] scan requests for the V.2012 plugins in a seeded
    order, closed loop.  Store and memo are warmed in set-up — in-process
    through [Scan.run_json], then one untimed pass through the daemon to
    open its watch sessions — so requests replay cached results: the time
    goes to protocol, queue, batching, store reads and encoding. *)

open Harness

let clients = 2

type state = {
  corpus : Corpus.t;
  gen_s : float;
  dir : string;
  sock : string;
  daemon : Thread.t;
  plugins : Corpus.Catalog.plugin_output array;
  frames : string array;  (** encoded scan request per plugin *)
  reports : string array;  (** warm in-process report per plugin *)
  open_lat : float list;
      (** client latency (ms) of each request of the session-opening pass *)
}

let request_of (p : Corpus.Catalog.plugin_output) =
  { Serve.Protocol.sr_id = Some p.Corpus.Catalog.po_name;
    sr_tenant = None;
    sr_project = p.Corpus.Catalog.po_project;
    sr_opts = Serve.Scan.default;
    sr_budget = Secflow.Budget.default;
    sr_deadline_ms = None }

let connect sock =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> fd
  | exception e ->
      Unix.close fd;
      raise e

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(** One request/reply exchange; [Error] on a lost connection. *)
let exchange fd frame =
  match Serve.Protocol.write_frame fd frame with
  | exception (Serve.Protocol.Closed | Unix.Unix_error _) -> Error "closed"
  | () -> (
      match Serve.Protocol.read_frame fd with
      | Serve.Protocol.Frame reply -> Ok reply
      | Serve.Protocol.Eof | Serve.Protocol.Oversized _
      | Serve.Protocol.Timed_out ->
          Error "connection lost"
      | exception Unix.Unix_error _ -> Error "connection lost")

(** Drain the daemon with [shutdown] and join it — also on failure paths,
    so no thread outlives the run. *)
let stop_daemon st =
  (match connect st.sock with
  | exception _ -> ()
  | fd ->
      ignore
        (exchange fd (Serve.Protocol.encode_simple_request ~op:"shutdown" ()));
      close_quietly fd);
  Thread.join st.daemon

(* The daemon's watch sessions turn summary-DAG tracking on process-wide;
   each set-up starts with it off, as a fresh daemon process would. *)
let teardown st =
  stop_daemon st;
  Phpsafe.Analyzer.set_dag_tracking false;
  rm_rf st.dir

let setup () =
  Phpsafe.Analyzer.set_dag_tracking false;
  Phplang.Project.Parse_cache.clear Phplang.Project.Parse_cache.shared;
  let t0 = now () in
  let corpus = Corpus.generate Corpus.Plan.V2012 in
  let gen_s = now () -. t0 in
  let dir = fresh_dir "serve-warm" in
  Phplang.Store.set_root (Some (Filename.concat dir "store"));
  let plugins = Array.of_list corpus.Corpus.plugins in
  let reports =
    Array.map
      (fun (p : Corpus.Catalog.plugin_output) ->
        Serve.Scan.run_json Serve.Scan.default p.Corpus.Catalog.po_project)
      plugins
  in
  let frames =
    Array.map (fun p -> Serve.Protocol.encode_scan_request (request_of p)) plugins
  in
  let sock = Filename.concat dir "d.sock" in
  let cfg =
    { (Serve.Daemon.default_config (Serve.Daemon.Unix_sock sock)) with
      Serve.Daemon.jobs = Some 1 }
  in
  let ready = Atomic.make false in
  let daemon =
    Thread.create
      (fun () ->
        Serve.Daemon.run ~on_ready:(fun _ -> Atomic.set ready true) cfg)
      ()
  in
  let deadline = now () +. 10. in
  while (not (Atomic.get ready)) && now () < deadline do
    Thread.delay 0.001
  done;
  let st =
    { corpus; gen_s; dir; sock; daemon; plugins; frames; reports; open_lat = [] }
  in
  if not (Atomic.get ready) then begin
    rm_rf dir;
    failwith "serve-warm: daemon did not come up"
  end;
  (* open the daemon's per-project watch sessions *)
  match connect sock with
  | exception e ->
      teardown st;
      raise e
  | fd ->
      Fun.protect ~finally:(fun () -> close_quietly fd) @@ fun () ->
      let open_lat =
        Array.to_list
          (Array.map
             (fun f ->
               let t0 = now () in
               ignore (exchange fd f);
               (now () -. t0) *. 1000.)
             frames)
      in
      { st with open_lat }

(* ------------------------------------------------------------------ *)
(* Client loop                                                         *)
(* ------------------------------------------------------------------ *)

type client_out = {
  mutable done_ : (float * float * float) list;
      (** per op, newest first: completion time, latency (ms), kLOC *)
  mutable ops : int;
  mutable bad : int;
}

(* Closed loop on one connection until [t_end]: each reply must carry
   exactly the report the oracle accepted for that plugin in set-up. *)
let client st ~valid ~kloc_of ~t_end ~wrap ~next out =
  match connect st.sock with
  | exception _ -> out.bad <- out.bad + 1
  | fd ->
      Fun.protect ~finally:(fun () -> close_quietly fd) @@ fun () ->
      let rec loop () =
        if now () < t_end then begin
          let i = next () in
          let t0 = now () in
          let reply = wrap (fun () -> exchange fd st.frames.(i)) in
          let dt = now () -. t0 in
          out.ops <- out.ops + 1;
          out.done_ <- (t0 +. dt, dt *. 1000., kloc_of.(i)) :: out.done_;
          match reply with
          | Error _ -> out.bad <- out.bad + 1
          | Ok reply ->
              (match Serve.Protocol.scan_report_of_reply reply with
              | Ok report when valid.(i) && String.equal report st.reports.(i)
                ->
                  ()
              | Ok _ | Error _ -> out.bad <- out.bad + 1);
              loop ()
        end
      in
      loop ()

(** [clients] concurrent connections for [seconds], sharing one seeded
    request order: (outputs, start, wall). *)
let drive st ~valid ~kloc_of ~seconds ~wrap rng =
  let outs =
    List.init clients (fun _ -> { done_ = []; ops = 0; bad = 0 })
  in
  let order = cycles rng ~len:(Array.length st.frames) ~count:64 in
  let cursor = Atomic.make 0 in
  let next () = order.(Atomic.fetch_and_add cursor 1 mod Array.length order) in
  let t0 = now () in
  let t_end = t0 +. seconds in
  let threads =
    List.map
      (fun out ->
        Thread.create
          (fun () ->
            try client st ~valid ~kloc_of ~t_end ~wrap ~next out
            with _ -> out.bad <- out.bad + 1)
          ())
      outs
  in
  List.iter Thread.join threads;
  (outs, t0, now () -. t0)

let ops outs = List.fold_left (fun acc o -> acc + o.ops) 0 outs
let bad outs = List.fold_left (fun acc o -> acc + o.bad) 0 outs

(* latencies (ms) of both connections' ops, in completion order *)
let latencies outs =
  List.map (fun (_, l, _) -> l)
    (List.sort compare (List.concat_map (fun o -> o.done_) outs))

(* both connections' ops in completion order, cut into windows timed from
   the previous window's last completion *)
let windows outs ~t0 =
  let all =
    List.sort compare (List.concat_map (fun o -> o.done_) outs)
  in
  let _, ws =
    List.fold_left
      (fun (prev, acc) ops ->
        let last, _, _ = List.nth ops (List.length ops - 1) in
        ( last,
          { w_ops = List.length ops;
            w_secs = last -. prev;
            w_kloc = List.fold_left (fun a (_, _, k) -> a +. k) 0. ops;
            w_lat_ms = List.map (fun (_, l, _) -> l) ops }
          :: acc ))
      (t0, [])
      (windows_of ~ops:(fun _ -> 1) all)
  in
  List.rev ws

(* [Serve.Daemon] computes its percentiles over the latencies of its last
   4096 scans *)
let daemon_window = 4096

(* the daemon's scan count and p50 from its [metrics] op *)
let server_latency st =
  match connect st.sock with
  | exception _ -> (0, 0.)
  | fd -> (
      Fun.protect ~finally:(fun () -> close_quietly fd) @@ fun () ->
      match exchange fd (Serve.Protocol.encode_simple_request ~op:"metrics" ()) with
      | Error _ -> (0, 0.)
      | Ok reply -> (
          let open Secflow.Json in
          match parse reply with
          | Error _ -> (0, 0.)
          | Ok doc -> (
              let lat k = Option.bind (member "latency_ms" doc) (member k) in
              let count = Option.value ~default:0 (Option.bind (lat "count") to_int_opt) in
              match lat "p50" with
              | Some (Float f) -> (count, f)
              | Some (Int i) -> (count, float_of_int i)
              | _ -> (count, 0.))))

let traced st ~valid ~kloc_of (p : params) rng ~gen_s =
  let memo_hits () = Phplang.Project.Parse_cache.hits Passes.memo
  and memo_misses () = Phplang.Project.Parse_cache.misses Passes.memo in
  let h0 = memo_hits () and m0 = memo_misses () in
  let t = tally () in
  let add outs =
    t.attempted <- t.attempted + ops outs;
    t.failed <- t.failed + bad outs
  in
  (* untraced reference, then the same loop with every exchange wrapped
     in the layer timer: their throughput ratio is the trace overhead *)
  let ref_outs, _, ref_wall =
    drive st ~valid ~kloc_of ~seconds:(0.25 *. p.seconds) ~wrap:(fun f -> f ()) rng
  in
  add ref_outs;
  let rt = layer () in
  let outs, _, wall =
    drive st ~valid ~kloc_of ~seconds:(0.35 *. p.seconds)
      ~wrap:(fun f -> timed rt f) rng
  in
  add outs;
  (* the daemon's p50 covers the scans it served last: set-up's opening
     pass, then both drives.  The client p50 is taken over the same ones. *)
  let served, server_p50 = server_latency st in
  let client_p50 =
    let all = st.open_lat @ latencies ref_outs @ latencies outs in
    let skip = List.length all - min served daemon_window in
    percentile (List.filteri (fun i _ -> i >= skip) all) 50.
  in
  (* in-process layers: encode, decode, scan, report encoding *)
  let enc = layer () and dec = layer () and scan = layer () and tj = layer () in
  let bytes = ref 0 in
  let t_in = now () in
  let t_end = t_in +. (0.4 *. p.seconds) in
  let n = Array.length st.plugins in
  let rec loop () =
    if now () < t_end then begin
      let i = Corpus.Prng.int rng n in
      let project = st.plugins.(i).Corpus.Catalog.po_project in
      let frame =
        timed enc (fun () ->
            Serve.Protocol.encode_scan_request (request_of st.plugins.(i)))
      in
      ignore (timed dec (fun () -> Serve.Protocol.decode_request frame));
      let tool, result =
        timed scan (fun () -> Serve.Scan.run Serve.Scan.default project)
      in
      let report = timed tj (fun () -> Secflow.Report.to_json ~tool result) in
      bytes := !bytes + String.length report;
      count t (valid.(i) && String.equal report st.reports.(i));
      loop ()
    end
  in
  loop ();
  let in_wall = now () -. t_in in
  let per_call (l : layer) = ratio (l.l_s *. 1000.) (float_of_int l.l_calls) in
  let calls = float_of_int (max 1 scan.l_calls) in
  let measured =
    [ ("serve.protocol.encode_ms", per_call enc);
      ("serve.protocol.decode_ms", per_call dec);
      ("serve.scan.run_json_ms",
       ratio ((scan.l_s +. tj.l_s) *. 1000.) (float_of_int scan.l_calls));
      ("serve.scan.alloc_mw", mw (scan.l_minor +. tj.l_minor) /. calls);
      ("serve.scan.major_mw", mw (scan.l_major +. tj.l_major) /. calls);
      ("secflow.report.to_json_ms", per_call tj);
      ("secflow.report.bytes", float_of_int !bytes /. calls);
      ("serve.server_p50_ms", server_p50);
      ("serve.wait_ms", client_p50 -. server_p50);
      ("phplang.parse_cache.hit_ratio",
       let h = memo_hits () - h0 and m = memo_misses () - m0 in
       ratio (float_of_int h) (float_of_int (h + m)));
      ("corpus.generate_s", gen_s);
      ("obs.trace_overhead_ratio",
       ratio
         (float_of_int (ops ref_outs) /. ref_wall)
         (float_of_int (ops outs) /. wall)
       -. 1.);
      ("unattributed_ratio",
       1. -. ratio (enc.l_s +. dec.l_s +. scan.l_s +. tj.l_s) in_wall);
      ("error_ratio", ratio (float_of_int t.failed) (float_of_int t.attempted)) ]
    @ store_metrics ()
  in
  result_of t (per_layer measured)

let run (p : params) =
  with_store_root None @@ fun () ->
  let setup_s, st = repeat_setup ~setup ~teardown in
  Fun.protect ~finally:(fun () -> teardown st) @@ fun () ->
  let expect = Oracle.expect Oracle.Phpsafe st.corpus in
  let valid =
    Array.map2
      (fun (pl : Corpus.Catalog.plugin_output) report ->
        Oracle.check_json (Hashtbl.find expect pl.Corpus.Catalog.po_name) report)
      st.plugins st.reports
  in
  let kloc_of =
    Array.map (fun (pl : Corpus.Catalog.plugin_output) -> kloc pl.po_project) st.plugins
  in
  let table_ok =
    Oracle.agrees_with_table_i Oracle.Phpsafe Corpus.Plan.V2012 expect
  in
  let rng = Corpus.Prng.create p.seed in
  reset_counters ();
  let r =
    if p.trace then traced st ~valid ~kloc_of p rng ~gen_s:st.gen_s
    else begin
      let outs, t0, _ =
        drive st ~valid ~kloc_of ~seconds:p.seconds ~wrap:(fun f -> f ()) rng
      in
      result_of
        { attempted = ops outs; failed = bad outs }
        (end_to_end ~setup_s (windows outs ~t0))
    end
  in
  { r with correct = r.correct && table_ok }
