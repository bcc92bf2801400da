(** Measurement plumbing shared by the four workloads: clocks, order
    statistics, allocation counters, layer accumulators, scratch
    directories inside the working directory, and the result record
    [main] prints. *)

let now = Obs.Clock.now

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)
(* ------------------------------------------------------------------ *)

(** Nearest-rank percentile ([p] in 0..100); 0 on no samples. *)
let percentile (xs : float list) p =
  match xs with
  | [] -> 0.
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) rank))

let median xs = percentile xs 50.

let ratio num den = if den > 0. then num /. den else 0.

(** Seeded Fisher-Yates shuffle: the workload seed fixes every order. *)
let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Corpus.Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(** [cycles rng ~len ~count]: [count] consecutive seeded permutations of
    [0, len) — every item is visited once per cycle, so any three cycles
    carry the same mix of cheap and expensive items whatever the seed. *)
let cycles rng ~len ~count =
  Array.concat
    (List.init count (fun _ -> Array.of_list (shuffle rng (List.init len Fun.id))))

(* ------------------------------------------------------------------ *)
(* Process and allocation counters                                     *)
(* ------------------------------------------------------------------ *)

(** Peak resident set (VmHWM) in MB, from /proc; 0 where unavailable. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:"
          ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d" (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
      in
      scan ()

(* [Gc.quick_stat] in OCaml 5.1 is process-wide: it adds the live counts
   of the calling domain to the last sampled counts of every other domain
   (and those of terminated ones).  Deltas around a call are therefore
   exact only while no other domain allocates — which is why layer
   metrics come from runs at pool size 1. *)
let words () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_words)

(** Time, call count and allocation of one layer, summed over calls. *)
type layer = {
  mutable l_s : float;
  mutable l_calls : int;
  mutable l_minor : float;
  mutable l_major : float;
}

let layer () = { l_s = 0.; l_calls = 0; l_minor = 0.; l_major = 0. }

let timed (l : layer) f =
  let mi0, ma0 = words () in
  let t0 = now () in
  let finish () =
    let t1 = now () in
    let mi1, ma1 = words () in
    l.l_s <- l.l_s +. (t1 -. t0);
    l.l_calls <- l.l_calls + 1;
    l.l_minor <- l.l_minor +. (mi1 -. mi0);
    l.l_major <- l.l_major +. (ma1 -. ma0)
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* ------------------------------------------------------------------ *)
(* Scratch directories                                                 *)
(* ------------------------------------------------------------------ *)

(* Everything a run writes lives under this directory of the working
   directory, never under the system temp dir; relative paths also keep
   Unix socket names short whatever the checkout's location. *)
let scratch_root = ".perfbench-tmp"

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let fresh_dir tag =
  if not (Sys.file_exists scratch_root) then Unix.mkdir scratch_root 0o755;
  let rec go n =
    let d =
      Filename.concat scratch_root
        (Printf.sprintf "%s-%d-%d" tag (Unix.getpid ()) n)
    in
    if Sys.file_exists d then go (n + 1)
    else begin
      Unix.mkdir d 0o755;
      d
    end
  in
  go 0

(** Remove the scratch root when no other run still uses it. *)
let cleanup_scratch () =
  match Sys.readdir scratch_root with
  | [||] -> ( try Unix.rmdir scratch_root with Unix.Unix_error _ -> ())
  | _ | (exception Sys_error _) -> ()

(** [with_store_root dir f] runs [f] with the persistent store at [dir]
    ([None] = off) and restores the previous root afterwards. *)
let with_store_root dir f =
  let saved = Phplang.Store.root () in
  Phplang.Store.set_root dir;
  Fun.protect ~finally:(fun () -> Phplang.Store.set_root saved) f

(** Zero every public counter before a measured phase, so earlier phases
    and earlier set-ups cannot leak into its numbers. *)
let reset_counters () =
  Phplang.Store.reset_counters ();
  Obs.reset ();
  Obs.Mirror.reset ()

(* ------------------------------------------------------------------ *)
(* Set-up repetition                                                   *)
(* ------------------------------------------------------------------ *)

(** Runs per measurement of set-up time; the median is reported. *)
let setup_reps = 3

(** [repeat_setup ~setup ~teardown] builds the workload state
    {!setup_reps} times, tearing down all but the last build, and returns
    the median set-up seconds with the surviving state.  Each build starts
    from the same empty caches, so the repetitions measure the same
    work. *)
let repeat_setup ~setup ~teardown =
  let rec go k times =
    Gc.compact ();
    let t0 = now () in
    let st = setup () in
    let dt = now () -. t0 in
    if k = 1 then (median (dt :: times), st)
    else begin
      teardown st;
      go (k - 1) (dt :: times)
    end
  in
  go setup_reps []

(* ------------------------------------------------------------------ *)
(* Corpus helpers                                                      *)
(* ------------------------------------------------------------------ *)

let lines_of s =
  let n = ref 1 in
  String.iter (fun c -> if c = '\n' then incr n) s;
  !n

(** Thousands of source lines in a project — the paper's s/kLOC unit. *)
let kloc (p : Phplang.Project.t) =
  float_of_int
    (List.fold_left
       (fun acc (f : Phplang.Project.file) -> acc + lines_of f.source)
       0 p.files)
  /. 1000.

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

(** Ops attempted and ops whose output failed the oracle or the transport. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let count (t : tally) ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

type result = {
  attempted : int;
  failed : int;
  correct : bool;
  metrics : metric list;
}

(** What a workload's run function receives from the command line. *)
type params = { seed : int; seconds : float; trace : bool }

(** A slice of consecutive ops: how many, the seconds they took, the
    source kLOC they covered and their latencies. *)
type window = { w_ops : int; w_secs : float; w_kloc : float; w_lat_ms : float list }

(** Ops per window: three passes over the 35 plugins, and enough for a
    p90 with ten samples beyond it. *)
let window_ops = 105

(** Group consecutive [items] (in completion order) into windows of at
    least {!window_ops} ops; a short tail joins the last window. *)
let windows_of ~ops (items : 'a list) : 'a list list =
  let rec go acc cur n = function
    | [] -> (
        match (cur, acc) with
        | [], _ -> List.rev acc
        | _, last :: rest when n < window_ops -> List.rev ((last @ List.rev cur) :: rest)
        | _ -> List.rev (List.rev cur :: acc))
    | x :: rest ->
        let n = n + ops x in
        if n >= window_ops then go (List.rev (x :: cur) :: acc) [] 0 rest
        else go acc (x :: cur) n rest
  in
  go [] [] 0 items

(* ------------------------------------------------------------------ *)
(* Metric declarations                                                 *)
(* ------------------------------------------------------------------ *)

(* BENCHMARK.json, at the root of the working directory, is the one list
   of metric names and units; perfbench/layer_map.json annotates the
   per-layer ones by name.  A run fails rather than print a metric the
   list does not declare, or a map entry for one it does not. *)

let read_json path =
  match
    Secflow.Json.parse (In_channel.with_open_bin path In_channel.input_all)
  with
  | Ok doc -> doc
  | Error e -> failwith (path ^ ": " ^ e)

let entries path section doc =
  match Option.bind (Secflow.Json.member section doc) Secflow.Json.to_list_opt with
  | Some l -> l
  | None -> failwith (Printf.sprintf "%s: no %s list" path section)

let field path key e =
  match Option.bind (Secflow.Json.member key e) Secflow.Json.to_string_opt with
  | Some s -> s
  | None -> failwith (Printf.sprintf "%s: entry without %s" path key)

(** (name, unit) of every metric of [section] of BENCHMARK.json, in order. *)
let declared section =
  let path = "BENCHMARK.json" in
  List.map
    (fun e -> (field path "name" e, field path "unit" e))
    (entries path section (read_json path))

let check_layer_map names =
  let path = "perfbench/layer_map.json" in
  List.iter
    (fun e ->
      let n = field path "metric" e in
      if not (List.mem n names) then
        failwith (Printf.sprintf "%s: %s is not a declared per-layer metric" path n))
    (entries path "layers" (read_json path))

(** The metrics [section] declares, in its order, valued from [measured].
    A per-layer metric the run did not measure reports 0: its layer did no
    work in this workload.  An end-to-end metric must be measured. *)
let emit section measured =
  let decl = declared section in
  let names = List.map fst decl in
  List.iter
    (fun (n, _) ->
      if not (List.mem n names) then
        failwith (Printf.sprintf "BENCHMARK.json: %s does not declare %s" section n))
    measured;
  if section = "per_layer" then check_layer_map names;
  List.map
    (fun (name, unit_) ->
      let value =
        match List.assoc_opt name measured with
        | Some v -> v
        | None when section = "per_layer" -> 0.
        | None -> failwith ("end-to-end metric not measured: " ^ name)
      in
      { name; value; unit_ })
    decl

(** End-to-end metrics shared by every workload.  Rates and latency
    percentiles are computed per window and the median over windows is
    reported, so a burst of machine noise that slows a few windows does
    not move the figure. *)
let end_to_end ~setup_s (ws : window list) =
  let per f = median (List.map f ws) in
  emit "end_to_end"
    [ ("setup_s", setup_s);
      ("ops_per_s", per (fun w -> ratio (float_of_int w.w_ops) w.w_secs));
      ("kloc_per_s", per (fun w -> ratio w.w_kloc w.w_secs));
      ("latency_p50_ms", per (fun w -> percentile w.w_lat_ms 50.));
      ("latency_p90_ms", per (fun w -> percentile w.w_lat_ms 90.));
      ("peak_rss_mb", peak_rss_mb ()) ]

(** The traced run's metric list: [measured] values by name. *)
let per_layer measured = emit "per_layer" measured

let result_of (t : tally) metrics =
  { attempted = t.attempted; failed = t.failed; correct = t.failed = 0; metrics }

(** Store hit ratio of one namespace since the last counter reset. *)
let store_hit_ratio ns =
  match
    List.find_opt
      (fun (s : Phplang.Store.stats) -> String.equal s.Phplang.Store.ns ns)
      (Phplang.Store.counters ())
  with
  | None -> 0.
  | Some s ->
      ratio (float_of_int s.Phplang.Store.hits)
        (float_of_int (s.Phplang.Store.hits + s.Phplang.Store.misses))

let store_metrics () =
  let sum f =
    float_of_int
      (List.fold_left (fun acc s -> acc + f s) 0 (Phplang.Store.counters ()))
  in
  [ ("phplang.store.parse.hit_ratio", store_hit_ratio "parse");
    ("phplang.store.result.hit_ratio", store_hit_ratio "result");
    ("phplang.store.summary.hit_ratio", store_hit_ratio "summary");
    ("phplang.store.stores", sum (fun s -> s.Phplang.Store.stores));
    ("phplang.store.write_errors", sum (fun s -> s.Phplang.Store.write_errors)) ]

let mw words = words /. 1e6

(** Run [round] until [seconds] have elapsed (at least once); returns the
    per-round values in order. *)
let rounds_for seconds round =
  let t_end = now () +. seconds in
  let rec go acc =
    let acc = round () :: acc in
    if now () >= t_end then List.rev acc else go acc
  in
  go []
