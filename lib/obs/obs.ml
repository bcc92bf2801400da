(** Observability subsystem — see obs.mli for the contract. *)

module Clock = struct
  let now_ns () = Monotonic_clock.now ()
  let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9
end

type span_agg = { sa_name : string; sa_count : int; sa_total_ns : int64 }

type event = {
  ev_domain : int;
  ev_seq : int;
  ev_name : string;
  ev_depth : int;
  ev_start_ns : int64;
  ev_dur_ns : int64;
}

type snapshot = {
  sn_counters : (string * int) list;
  sn_gauges : (string * float) list;
  sn_spans : span_agg list;
  sn_events : event list;
}

(* ------------------------------------------------------------------ *)
(* Recording state                                                    *)
(* ------------------------------------------------------------------ *)

let enabled_flag = Atomic.make false
let epoch_ns = Atomic.make 0L

(** One per domain, reached through [Domain.DLS]: owning-domain writes need
    no lock.  The registry only adds buffers (under its mutex); merging
    reads them while no other domain records (see obs.mli). *)
type buffer = {
  buf_domain : int;
  mutable buf_events : event list;  (** reversed *)
  mutable buf_depth : int;  (** open spans on this domain *)
  mutable buf_seq : int;
  buf_spans : (string, int ref * int64 ref) Hashtbl.t;
}

let registry : buffer list ref = ref []
let registry_lock = Mutex.create ()

let buffer_key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          buf_domain = (Domain.self () :> int);
          buf_events = [];
          buf_depth = 0;
          buf_seq = 0;
          buf_spans = Hashtbl.create 32;
        }
      in
      Mutex.protect registry_lock (fun () -> registry := b :: !registry);
      b)

let buffer () = Domain.DLS.get buffer_key

(* ------------------------------------------------------------------ *)
(* Counters: always on, one shard per domain                          *)
(* ------------------------------------------------------------------ *)

(** A domain's counters.  The systhreads of one domain share its shard
    (the daemon's connection threads all count in the domain that runs
    its accept loop), so every access takes [sh_lock].  At domain exit
    the shard is folded into [retired] and unregistered, so the domains
    [Sched.map] spawns per call do not pile up, and a daemon's scheduler
    domain hands its counts over when [Daemon.run] joins it. *)
type shard = {
  sh_lock : Mutex.t;
  sh_counts : (string, int ref) Hashtbl.t;
  mutable sh_live : bool;  (** false once folded into [retired] *)
}

(* [shards_lock] guards [shards] and [retired], and is always taken
   before any [sh_lock]. *)
let shards : shard list ref = ref []
let retired : (string, int ref) Hashtbl.t = Hashtbl.create 32
let shards_lock = Mutex.create ()

let bump tbl name n =
  match Hashtbl.find tbl name with
  | r -> r := !r + n
  | exception Not_found -> Hashtbl.replace tbl name (ref n)

let retire s () =
  Mutex.protect shards_lock (fun () ->
      Mutex.protect s.sh_lock (fun () ->
          Hashtbl.iter (fun name r -> bump retired name !r) s.sh_counts;
          s.sh_live <- false);
      shards := List.filter (fun s' -> s' != s) !shards)

let shard_key =
  Domain.DLS.new_key (fun () ->
      let s =
        { sh_lock = Mutex.create (); sh_counts = Hashtbl.create 32;
          sh_live = true }
      in
      Mutex.protect shards_lock (fun () -> shards := s :: !shards);
      Domain.at_exit (retire s);
      s)

let add name n =
  let s = Domain.DLS.get shard_key in
  Mutex.lock s.sh_lock;
  let live = s.sh_live in
  if live then bump s.sh_counts name n;
  Mutex.unlock s.sh_lock;
  (* a count from an exit callback that runs after [retire] *)
  if not live then Mutex.protect shards_lock (fun () -> bump retired name n)

let incr name = add name 1

let by_name (a, _) (b, _) = String.compare a b

(* [f] over [retired] and every live shard's table, each under its lock *)
let fold_shards f acc =
  Mutex.protect shards_lock (fun () ->
      List.fold_left
        (fun acc s -> Mutex.protect s.sh_lock (fun () -> f acc s.sh_counts))
        (f acc retired) !shards)

let counters () =
  let sum = Hashtbl.create 32 in
  fold_shards
    (fun () tbl -> Hashtbl.iter (fun name r -> bump sum name !r) tbl)
    ();
  List.sort by_name (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) sum [])

let counter name =
  fold_shards
    (fun acc tbl ->
      match Hashtbl.find_opt tbl name with Some r -> acc + !r | None -> acc)
    0

let gauges : (string, float) Hashtbl.t = Hashtbl.create 16
let gauges_lock = Mutex.create ()

(* ------------------------------------------------------------------ *)
(* Recording API                                                      *)
(* ------------------------------------------------------------------ *)

let enabled () = Atomic.get enabled_flag

let set_enabled b =
  if b && not (Atomic.get enabled_flag) then
    Atomic.set epoch_ns (Clock.now_ns ());
  Atomic.set enabled_flag b

let reset () =
  Mutex.protect registry_lock (fun () ->
      List.iter
        (fun b ->
          b.buf_events <- [];
          b.buf_depth <- 0;
          b.buf_seq <- 0;
          Hashtbl.reset b.buf_spans)
        !registry);
  fold_shards (fun () tbl -> Hashtbl.reset tbl) ();
  Mutex.protect gauges_lock (fun () -> Hashtbl.reset gauges);
  Atomic.set epoch_ns (Clock.now_ns ())

let set_gauge name v =
  if Atomic.get enabled_flag then
    Mutex.protect gauges_lock (fun () -> Hashtbl.replace gauges name v)

let record_span b name ~depth ~t0 =
  let t1 = Clock.now_ns () in
  let dur = Int64.sub t1 t0 in
  b.buf_depth <- depth;
  b.buf_seq <- b.buf_seq + 1;
  b.buf_events <-
    {
      ev_domain = b.buf_domain;
      ev_seq = b.buf_seq;
      ev_name = name;
      ev_depth = depth;
      ev_start_ns = Int64.sub t0 (Atomic.get epoch_ns);
      ev_dur_ns = dur;
    }
    :: b.buf_events;
  match Hashtbl.find_opt b.buf_spans name with
  | Some (count, total) ->
      Stdlib.incr count;
      total := Int64.add !total dur
  | None -> Hashtbl.replace b.buf_spans name (ref 1, ref dur)

let span name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let b = buffer () in
    let depth = b.buf_depth in
    b.buf_depth <- depth + 1;
    let t0 = Clock.now_ns () in
    match f () with
    | v ->
        record_span b name ~depth ~t0;
        v
    | exception e ->
        record_span b name ~depth ~t0;
        raise e
  end

(* the former mirrored-counter API, kept only for perfbench/ *)
module Mirror = struct
  let get = counter
  let reset = reset
end

let percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) rank))

(* ------------------------------------------------------------------ *)
(* Snapshot merge                                                     *)
(* ------------------------------------------------------------------ *)

let snapshot () =
  let buffers = Mutex.protect registry_lock (fun () -> !registry) in
  let spans = Hashtbl.create 32 in
  let events = ref [] in
  List.iter
    (fun b ->
      Hashtbl.iter
        (fun name (count, total) ->
          match Hashtbl.find_opt spans name with
          | Some (c, t) ->
              c := !c + !count;
              t := Int64.add !t !total
          | None -> Hashtbl.replace spans name (ref !count, ref !total))
        b.buf_spans;
      events := List.rev_append b.buf_events !events)
    buffers;
  let gs =
    Mutex.protect gauges_lock (fun () ->
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) gauges [])
  in
  {
    sn_counters = counters ();
    sn_gauges = List.sort by_name gs;
    sn_spans =
      Hashtbl.fold
        (fun k (c, t) acc ->
          { sa_name = k; sa_count = !c; sa_total_ns = !t } :: acc)
        spans []
      |> List.sort (fun a b -> String.compare a.sa_name b.sa_name);
    sn_events =
      List.sort
        (fun a b ->
          match compare a.ev_domain b.ev_domain with
          | 0 -> compare a.ev_seq b.ev_seq
          | c -> c)
        !events;
  }

(* ------------------------------------------------------------------ *)
(* Exporters                                                          *)
(* ------------------------------------------------------------------ *)

let ns_to_s ns = Int64.to_float ns /. 1e9
let ns_to_us ns = Int64.to_float ns /. 1e3

let pp_summary ppf s =
  Format.fprintf ppf "== observability summary ==@.";
  if s.sn_gauges <> [] then begin
    Format.fprintf ppf "gauges:@.";
    List.iter
      (fun (name, v) -> Format.fprintf ppf "  %-40s %12.2f@." name v)
      s.sn_gauges
  end;
  if s.sn_counters <> [] then begin
    Format.fprintf ppf "counters:@.";
    List.iter
      (fun (name, v) -> Format.fprintf ppf "  %-40s %12d@." name v)
      s.sn_counters
  end;
  if s.sn_spans <> [] then begin
    Format.fprintf ppf "spans:%42s %10s %10s@." "count" "total" "mean";
    List.iter
      (fun a ->
        let total = ns_to_s a.sa_total_ns in
        Format.fprintf ppf "  %-40s %7d %9.3fs %8.3fms@." a.sa_name a.sa_count
          total
          (if a.sa_count = 0 then 0. else total *. 1e3 /. float_of_int a.sa_count))
      s.sn_spans
  end

let category_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let trace_json s =
  let module IS = Set.Make (Int) in
  let meta ~name ~tid label =
    Json.Obj
      [ ("name", Json.String name); ("ph", Json.String "M");
        ("pid", Json.Int 1); ("tid", Json.Int tid);
        ("args", Json.Obj [ ("name", Json.String label) ]) ]
  in
  let domains =
    List.fold_left (fun acc e -> IS.add e.ev_domain acc) IS.empty s.sn_events
  in
  let threads =
    List.map
      (fun d -> meta ~name:"thread_name" ~tid:d (Printf.sprintf "domain %d" d))
      (IS.elements domains)
  in
  (* a long run records hundreds of thousands of events: build each one
     only as the writer reaches it *)
  let event e =
    Json.Obj
      [ ("name", Json.String e.ev_name);
        ("cat", Json.String (category_of e.ev_name));
        ("ph", Json.String "X"); ("pid", Json.Int 1);
        ("tid", Json.Int e.ev_domain);
        ("ts", Json.fixed 3 (ns_to_us e.ev_start_ns));
        ("dur", Json.fixed 3 (ns_to_us e.ev_dur_ns)) ]
  in
  let process = meta ~name:"process_name" ~tid:0 "phpsafe" in
  Json.to_string
    (Json.Obj
       [ ("traceEvents",
          Json.Seq
            (Seq.append
               (List.to_seq (process :: threads))
               (Seq.map event (List.to_seq s.sn_events))));
         ("displayTimeUnit", Json.String "ms") ])

let metrics_json s =
  Json.to_string
    (Json.Obj
       [ ("schema", Json.String "phpsafe-obs/1");
         ("gauges",
          Json.Obj (List.map (fun (n, v) -> (n, Json.fixed 6 v)) s.sn_gauges));
         ("counters",
          Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) s.sn_counters));
         ("spans",
          Json.Obj
            (List.map
               (fun a ->
                 ( a.sa_name,
                   Json.Obj
                     [ ("count", Json.Int a.sa_count);
                       ("total_s", Json.fixed 9 (ns_to_s a.sa_total_ns)) ] ))
               s.sn_spans)) ])

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let export ?(summary = false) ?trace ?metrics () =
  if enabled () then begin
    let snap = snapshot () in
    Option.iter
      (fun path ->
        write_file path (trace_json snap);
        Format.eprintf "trace written to %s (open in https://ui.perfetto.dev)@."
          path)
      trace;
    Option.iter
      (fun path ->
        write_file path (metrics_json snap);
        Format.eprintf "metrics written to %s@." path)
      metrics;
    if summary then Format.eprintf "%a" pp_summary snap
  end
