(* Entry point of the repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload (batch-cold, deep-warm, serve-warm or edit-watch)
   for S seconds with inputs fixed by seed N and prints, as the last line
   of stdout, one JSON object: {"correct", "attempted", "failed",
   "metrics"}.  With --trace 0 the metrics are the end-to-end ones; with
   --trace 1 the per-layer ones (see BENCHMARK.json for both lists and for
   which layer metric should move which end-to-end metric on which
   workload).  One workload per process, so peak RSS is the workload's
   own. *)

open Perfbench

(* client threads, connections and pool domains never exceed nproc, nor
   two: the vCPU count of the machine the workloads were sized on *)
let max_parallel = max 1 (min 2 (Domain.recommended_domain_count ()))

let workloads =
  [ ("batch-cold", fun p -> Batch_cold.run ~pool_size:max_parallel p);
    ("deep-warm", fun p -> Deep_warm.run ~pool_size:max_parallel p);
    ("serve-warm", Serve_warm.run);
    ("edit-watch", Edit_watch.run) ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (batch-cold|deep-warm|serve-warm|edit-watch) \
     --seed N --seconds S --trace 0|1";
  exit 2

let parse_args argv =
  let rec go acc = function
    | flag :: value :: rest
      when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        go ((flag, value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let args = go [] (List.tl (Array.to_list argv)) in
  let get flag = try List.assoc flag args with Not_found -> usage () in
  let int flag =
    match int_of_string_opt (get flag) with Some n -> n | None -> usage ()
  in
  let name = get "--workload" in
  let run = try List.assoc name workloads with Not_found -> usage () in
  let seconds = int "--seconds" in
  let trace = int "--trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  (run, { Harness.seed = int "--seed"; seconds = float_of_int seconds; trace = trace = 1 })

let to_json (r : Harness.result) =
  let open Secflow.Json in
  to_string
    (Obj
       [ ("correct", Bool r.correct);
         ("attempted", Int r.attempted);
         ("failed", Int r.failed);
         ("metrics",
          Obj
            (List.map
               (fun (m : Harness.metric) ->
                 (m.name, Obj [ ("value", Float m.value); ("unit", String m.unit_) ]))
               r.metrics)) ])

let () =
  let run, params = parse_args Sys.argv in
  let result =
    Fun.protect ~finally:Harness.cleanup_scratch (fun () -> run params)
  in
  print_endline (to_json result)
