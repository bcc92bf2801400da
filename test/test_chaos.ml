(** Chaos-suite tests: the E15 harness ({!Evalkit.Chaos}) against live
    daemons.  The acceptance invariants: zero daemon crashes, every
    request terminating in one of the four terminal classes, delivered
    reports byte-identical to the in-process encoder — and the outcome
    table byte-identical between a sequential ([jobs:1]) and a parallel
    ([jobs:4]) daemon for the same seed, which is what makes the chaos
    results reviewable as a diff. *)

module Chaos = Evalkit.Chaos

let case = Alcotest.test_case

let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let seed = 1105
let rounds = 3

let check_invariants label (r : Chaos.report) =
  Alcotest.(check int) (label ^ ": zero daemon crashes") 0 r.Chaos.ch_crashes;
  Alcotest.(check int)
    (label ^ ": every request terminated")
    0 r.Chaos.ch_unterminated;
  Alcotest.(check bool)
    (label ^ ": delivered reports byte-identical")
    true r.Chaos.ch_identity_ok;
  Alcotest.(check int)
    (label ^ ": all requests accounted for")
    (rounds * List.length Chaos.scenario_order)
    r.Chaos.ch_requests;
  (* the control scenarios must actually deliver reports, the fault
     scenarios must actually bite — otherwise the harness is a no-op *)
  List.iter
    (fun (row : Chaos.row) ->
      match row.Chaos.cr_scenario with
      | "clean-vuln" | "clean-plain" | "trickle" | "disk-fault" ->
          Alcotest.(check int)
            (label ^ ": " ^ row.Chaos.cr_scenario ^ " all reports")
            rounds row.Chaos.cr_report
      | "mid-frame-cut" | "stall" ->
          Alcotest.(check int)
            (label ^ ": " ^ row.Chaos.cr_scenario ^ " all transport")
            rounds row.Chaos.cr_transport
      | "slow-deadline" ->
          Alcotest.(check int)
            (label ^ ": slow-deadline all deadline_exceeded")
            rounds row.Chaos.cr_deadline
      | "overload-shed" ->
          Alcotest.(check int)
            (label ^ ": overload-shed all overloaded")
            rounds row.Chaos.cr_overloaded
      | other -> Alcotest.failf "unknown scenario row: %s" other)
    r.Chaos.ch_rows

(* [Chaos.run], also checking that the disk-fault scenario bit: every
   round's scan met at least one failing cache write. *)
let run_chaos ~seed ~jobs label =
  let write_errors () = Obs.counter "cache.result.write_error" in
  let before = write_errors () in
  let r = Chaos.run ~seed ~rounds ~jobs () in
  let grew = write_errors () - before in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d failed cache writes >= %d rounds" label grew rounds)
    true (grew >= rounds);
  check_invariants label r;
  r

let cases =
  [
    case "chaos outcomes are invariant across pool sizes" `Slow (fun () ->
        let seq = run_chaos ~seed ~jobs:1 "jobs=1" in
        let par = run_chaos ~seed ~jobs:4 "jobs=4" in
        Alcotest.(check string) "outcome tables byte-identical"
          (Chaos.outcome_table seq) (Chaos.outcome_table par));
    case "deadline overshoot stays under the stated tolerance" `Slow
      (fun () ->
        let r = run_chaos ~seed:7 ~jobs:2 "jobs=2" in
        Alcotest.(check bool)
          (Printf.sprintf "p99 %.1fms <= %.0fms" r.Chaos.ch_overshoot_p99_ms
             r.Chaos.ch_tolerance_ms)
          true
          (r.Chaos.ch_overshoot_p99_ms <= r.Chaos.ch_tolerance_ms));
  ]

let () = Alcotest.run "chaos" [ ("chaos suite", cases) ]
