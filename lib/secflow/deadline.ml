(** Per-request wall-clock deadline — see deadline.mli. *)

exception Exceeded = Sched.Cancel

(* Unlike Budget (one process-global Atomic the driver sets per batch),
   deadlines differ per request *within* a batch, so the deadline in force
   is scoped to the domain running the work item: [Daemon.execute_job]
   wraps each scan in [with_deadline] on the worker domain that runs it. *)
let key : float option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let with_deadline at f =
  let old = Domain.DLS.get key in
  Domain.DLS.set key at;
  Fun.protect ~finally:(fun () -> Domain.DLS.set key old) f

let expired () =
  match Domain.DLS.get key with
  | None -> false
  | Some at -> Obs.Clock.now () > at

let check () =
  if expired () then begin
    Obs.incr "deadline.exceeded";
    raise Exceeded
  end
