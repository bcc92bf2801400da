(** Scratch state shared by the measurement harnesses (E12 {!Incremental},
    E14 {!Serve_bench}, E15 {!Chaos}, E17 {!Editstorm}): throw-away
    directories that are always removed, a scratch {!Phplang.Store} root
    that is always restored, and in-process daemons that are always shut
    down. *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(** [with_dir tag f] runs [f dir] on a fresh ["phpsafe-<tag>-<n>"]
    directory under the system temp dir and removes it afterwards, also
    when [f] raises. *)
let with_dir tag f =
  let base = Filename.get_temp_dir_name () in
  let rec fresh n =
    let d = Filename.concat base (Printf.sprintf "phpsafe-%s-%d" tag n) in
    if Sys.file_exists d then fresh (n + 1)
    else begin
      Sys.mkdir d 0o755;
      d
    end
  in
  let dir = fresh 0 in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(** [with_store tag f] is {!with_dir} with the directory installed as the
    store root while [f] runs; the previous root is restored afterwards. *)
let with_store tag f =
  let saved = Phplang.Store.root () in
  with_dir tag (fun dir ->
      Fun.protect
        ~finally:(fun () -> Phplang.Store.set_root saved)
        (fun () ->
          Phplang.Store.set_root (Some dir);
          f dir))

(** A client connection to [sock]; replies slower than 10 s read as
    [Timed_out], so a wedged daemon cannot hang a harness. *)
let connect sock =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0
   with Unix.Unix_error _ | Invalid_argument _ -> ());
  fd

(** [with_daemon cfg sock f] runs a {!Serve.Daemon} with [cfg] (listening
    on [sock]) in a thread, waits for its socket, runs [f ()], then sends
    [shutdown] and joins the daemon — also when [f] raises. *)
let with_daemon cfg sock f =
  let daemon = Thread.create Serve.Daemon.run cfg in
  let give_up = Obs.Clock.now () +. 10. in
  while (not (Sys.file_exists sock)) && Obs.Clock.now () < give_up do
    Thread.delay 0.005
  done;
  if not (Sys.file_exists sock) then failwith "scratch daemon did not come up";
  let stop () =
    (match connect sock with
    | exception _ -> ()
    | fd ->
        (try
           Serve.Protocol.write_frame fd
             (Serve.Protocol.encode_simple_request ~op:"shutdown" ());
           ignore (Serve.Protocol.read_frame fd)
         with _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ()));
    Thread.join daemon
  in
  Fun.protect ~finally:stop f
