(** Persistent content-addressed artifact store — the disk tier behind the
    parse cache and the RIPS/Pixy per-file result caches.

    Layout: [<root>/v<N>/<ns>/<k0k1>/<key>] where [key] is a hex digest and
    [k0k1] its first two characters (fan-out).  Each entry is a small
    framed file:

    {v
    phpsafe-store <format-version>
    <hex digest of payload>
    <payload: Marshal bytes>
    v}

    The frame makes reads safe: the payload is only unmarshalled after its
    digest verifies, so truncated, corrupt or foreign files — and entries
    written by an older format version, which live under a different
    [v<N>] directory — degrade to a miss, never to an error or a segfault.
    Writes go through a temp file in the destination directory and an
    atomic [rename], so concurrent readers (other domains or processes)
    only ever observe complete entries.

    The store is process-global, like {!Secflow.Budget}: the drivers point
    it at a directory once ([--cache-dir DIR], or the [PHPSAFE_CACHE_DIR]
    environment variable) before analysis starts.  With no root configured
    every operation is a no-op and the pipeline behaves exactly as an
    uncached build. *)

(** Bump when any marshalled artifact type (ASTs, summaries, findings) or
    the frame format changes: old entries become invisible, not invalid. *)
(* v4: Ast.Coalesce extends the binop type, so marshalled ASTs (and the
   summaries/findings derived from them) from v3 are incompatible. *)
(* v6: the sub-file incremental pipeline adds per-definition digest tables
   (ns "defdigest") and switches Digest.structural to No_sharing
   marshalling, changing every derived digest; v5 entries' keys and
   payloads are both stale. *)
(* v7: phpSAFE's summary and per-file result entries record the files
   whose [--flow] fixpoint ran out of passes. *)
(* v8: phpSAFE's summary, per-file and uncalled-function entries all hold
   one replay journal (pre-dedup findings, published summaries with their
   summary keys); the "defdigest" namespace is gone.  phpSAFE has since
   stopped caching analysis: its v8 "summary" and "result" entries are
   unreachable, and [prune] reclaims them. *)
(* v9: Pixy's OOP gate also inspects switch case guards and parameter
   defaults, so a v8 Pixy result for a file whose only OOP construct sits
   there is stale. *)
(* v10: the dataflow solver stops after a pass that changed no back-edge
   source, so under a tight pass budget a Pixy walk that v9 reported as
   budget-exhausted may now converge. *)
(* v11: RIPS gives a [print] or [include] expression a clean value, and a
   double-quoted string's [{$...}] region may hold quoted strings with the
   outer quote, so v10 RIPS results and cached parse failures are stale. *)
let format_version = 11

let magic = "phpsafe-store"

let env_root () =
  match Sys.getenv_opt "PHPSAFE_CACHE_DIR" with
  | None -> None
  | Some s ->
      let s = String.trim s in
      if s = "" then None else Some s

let root_ref : string option Atomic.t = Atomic.make (env_root ())

let set_root r = Atomic.set root_ref r
let root () = Atomic.get root_ref
let enabled () = root () <> None

(* ------------------------------------------------------------------ *)
(* Tenant namespacing                                                 *)
(* ------------------------------------------------------------------ *)

(* The serving daemon isolates cache entries per tenant by prefixing every
   namespace with "<tenant>/" for the duration of one request's analysis.
   The prefix lives in domain-local storage: a [Sched] worker domain sets
   it around its work item, so concurrently-running requests for different
   tenants never see each other's prefix.  With no tenant set (the CLI,
   the evaluation drivers, tenant-less requests) namespaces are exactly as
   before. *)

let tenant_key : string option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let valid_tenant t =
  t <> ""
  && String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' -> true
         | _ -> false)
       t
  && t <> "." && t <> ".."

let with_tenant tenant f =
  (match tenant with
  | Some t when not (valid_tenant t) ->
      invalid_arg (Printf.sprintf "Store.with_tenant: invalid tenant %S" t)
  | _ -> ());
  let old = Domain.DLS.get tenant_key in
  Domain.DLS.set tenant_key tenant;
  Fun.protect ~finally:(fun () -> Domain.DLS.set tenant_key old) f

(** The namespace as seen by the disk layout and the counters: tenant
    prefix applied ("/" nests a per-tenant directory level on disk). *)
let effective_ns ns =
  match Domain.DLS.get tenant_key with
  | None -> ns
  | Some t -> t ^ "/" ^ ns

(* ------------------------------------------------------------------ *)
(* Hit / miss / store accounting, per namespace                        *)
(* ------------------------------------------------------------------ *)

(* The counts live only in {!Obs}, as [cache.<ns>.<field>]. *)
let count ns what =
  Obs.incr
    (Printf.sprintf "cache.%s.%s" ns
       (match what with
       | `Hit -> "hit"
       | `Miss -> "miss"
       | `Store -> "store"
       | `Write_error -> "write_error"))

type stats = {
  ns : string;
  hits : int;
  misses : int;
  stores : int;
  write_errors : int;
}

(* [cache.<ns>.<field>] split at the last '.': tenant names may contain
   dots, and other [cache.*] counters ([cache.pruned],
   [cache.fsck.quarantined], [cache.result.replayed.<tool>]) have no
   accounting field, so they never show up as namespaces. *)
let counters () =
  let tbl = Hashtbl.create 8 in
  let zero ns = { ns; hits = 0; misses = 0; stores = 0; write_errors = 0 } in
  let set ns f =
    Hashtbl.replace tbl ns
      (f (Option.value (Hashtbl.find_opt tbl ns) ~default:(zero ns)))
  in
  List.iter
    (fun (name, v) ->
      match String.rindex_opt name '.' with
      | Some i when i > 6 && String.starts_with ~prefix:"cache." name -> (
          let set = set (String.sub name 6 (i - 6)) in
          match String.sub name (i + 1) (String.length name - i - 1) with
          | "hit" -> set (fun s -> { s with hits = v })
          | "miss" -> set (fun s -> { s with misses = v })
          | "store" -> set (fun s -> { s with stores = v })
          | "write_error" -> set (fun s -> { s with write_errors = v })
          | _ -> ())
      | _ -> ())
    (Obs.counters ());
  List.sort
    (fun a b -> String.compare a.ns b.ns)
    (Hashtbl.fold (fun _ s acc -> s :: acc) tbl [])

let reset_counters = Obs.reset

let pp_counters ppf () =
  List.iter
    (fun s ->
      let looked_up = s.hits + s.misses in
      Format.fprintf ppf
        "cache %-8s %6d hit(s) / %6d miss(es) (%3.0f%% hit rate), %6d \
         store(s)%s@."
        s.ns s.hits s.misses
        (if looked_up = 0 then 0.
         else 100. *. float_of_int s.hits /. float_of_int looked_up)
        s.stores
        (if s.write_errors = 0 then ""
         else Printf.sprintf ", %d write error(s)" s.write_errors))
    (counters ())

(* ------------------------------------------------------------------ *)
(* Fault injection (tests / chaos harness)                             *)
(* ------------------------------------------------------------------ *)

(* The hook runs just before the store touches the disk for an entry; a
   hook that raises simulates ENOSPC/EACCES/EIO at exactly the narrow
   points the production error handling covers: reads degrade to a miss,
   writes to a counted write error.  Process-global on purpose — the chaos
   harness arms it around requests flowing through worker domains. *)
let fault_hook : ([ `Read | `Write ] -> string -> unit) option Atomic.t =
  Atomic.make None

let set_fault_hook h = Atomic.set fault_hook h

let fault op path =
  match Atomic.get fault_hook with Some f -> f op path | None -> ()

(* ------------------------------------------------------------------ *)
(* Paths and I/O                                                       *)
(* ------------------------------------------------------------------ *)

let mkdir_p dir =
  let rec go d =
    if d = "" || d = "." || d = "/" || Sys.file_exists d then ()
    else begin
      go (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ -> ()
    end
  in
  go dir

(** [<root>/v<N>/<ns>/<k0k1>] and the entry path inside it.  Keys are hex
    digests; anything shorter than two characters gets a flat directory. *)
let entry_path ~root ~ns ~key =
  let fan = if String.length key >= 2 then String.sub key 0 2 else "_" in
  let dir =
    List.fold_left Filename.concat root
      [ Printf.sprintf "v%d" format_version; ns; fan ]
  in
  (dir, Filename.concat dir key)

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** Parse and verify the frame; [Some payload] only when the header and
    payload digest check out.  Shared by {!decode} and {!fsck} so both
    apply the same notion of "intact". *)
let verify_frame (content : string) : string option =
  match String.index_opt content '\n' with
  | None -> None
  | Some nl1 -> (
      let header = String.sub content 0 nl1 in
      if header <> Printf.sprintf "%s %d" magic format_version then None
      else
        match String.index_from_opt content (nl1 + 1) '\n' with
        | None -> None
        | Some nl2 ->
            let digest = String.sub content (nl1 + 1) (nl2 - nl1 - 1) in
            let payload =
              String.sub content (nl2 + 1) (String.length content - nl2 - 1)
            in
            if String.equal digest (Digest.hex payload) then Some payload
            else None)

(** Parse and verify the frame; [None] on any mismatch. *)
let decode (content : string) : 'a option =
  match verify_frame content with
  | None -> None
  | Some payload ->
      (* digest verified: the payload is byte-identical to what [put]
         marshalled, so unmarshalling it is safe *)
      Some (Marshal.from_string payload 0)

let get ~ns ~key : 'a option =
  match root () with
  | None -> None
  | Some root -> (
      let ns = effective_ns ns in
      let _, path = entry_path ~root ~ns ~key in
      let data =
        Obs.span "cache.io.read" @@ fun () ->
        match
          fault `Read path;
          read_all path
        with
        | content -> decode content
        | exception _ -> None
      in
      match data with
      | Some v ->
          count ns `Hit;
          Some v
      | None ->
          count ns `Miss;
          None)

let put ~ns ~key (v : 'a) : unit =
  match root () with
  | None -> ()
  | Some root -> (
      let ns = effective_ns ns in
      let tmp_ref = ref None in
      try
        Obs.span "cache.io.write" @@ fun () ->
        let dir, path = entry_path ~root ~ns ~key in
        mkdir_p dir;
        fault `Write path;
        let payload = Marshal.to_string v [] in
        let tmp = Filename.temp_file ~temp_dir:dir ".wip" ".tmp" in
        tmp_ref := Some tmp;
        let oc = open_out_bin tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            Printf.fprintf oc "%s %d\n%s\n%s" magic format_version
              (Digest.hex payload) payload);
        Sys.rename tmp path;
        count ns `Store
      with Sys_error _ | Unix.Unix_error (_, _, _) | Out_of_memory ->
        (* ENOSPC, EACCES, a short write, an unwritable root: degrade to
           "not cached", but count it — a silent swallow here turns a
           full disk into an invisible performance cliff.  Anything else
           (a Marshal bug, an assert) still propagates. *)
        (match !tmp_ref with
        | Some tmp -> ( try Sys.remove tmp with Sys_error _ -> ())
        | None -> ());
        count ns `Write_error)

(* ------------------------------------------------------------------ *)
(* Disk-tier accounting and pruning                                   *)
(* ------------------------------------------------------------------ *)

type disk_stats = { ds_ns : string; ds_entries : int; ds_bytes : int }

(** Walk every regular file under the active version directory, calling
    [f ns path st] with the entry's namespace (the directory components
    between [v<N>] and the two-character fan-out level, so per-tenant
    namespaces come back as ["tenant/parse"]). *)
let iter_entries ~root f =
  let vdir = Filename.concat root (Printf.sprintf "v%d" format_version) in
  let rec walk ns_rev dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> ()
    | entries ->
        Array.sort String.compare entries;
        Array.iter
          (fun entry ->
            let path = Filename.concat dir entry in
            match Unix.lstat path with
            | exception Unix.Unix_error _ -> ()
            | st -> (
                match st.Unix.st_kind with
                | Unix.S_DIR -> walk (entry :: ns_rev) path
                | Unix.S_REG ->
                    (* the file's parent is the fan-out level, not part of
                       the namespace *)
                    let ns =
                      match ns_rev with
                      | [] -> "_"
                      | _ :: above -> String.concat "/" (List.rev above)
                    in
                    f ns path st
                | _ -> ()))
          entries
  in
  if Sys.file_exists vdir then walk [] vdir

let stats () : disk_stats list =
  match root () with
  | None -> []
  | Some root ->
      let tbl : (string, int * int) Hashtbl.t = Hashtbl.create 8 in
      iter_entries ~root (fun ns _path st ->
          let entries, bytes =
            Option.value ~default:(0, 0) (Hashtbl.find_opt tbl ns)
          in
          Hashtbl.replace tbl ns (entries + 1, bytes + st.Unix.st_size));
      Hashtbl.fold
        (fun ns (entries, bytes) acc ->
          { ds_ns = ns; ds_entries = entries; ds_bytes = bytes } :: acc)
        tbl []
      |> List.sort (fun a b -> String.compare a.ds_ns b.ds_ns)

type fsck_report = { fk_scanned : int; fk_ok : int; fk_quarantined : int }

let fsck () : fsck_report =
  match root () with
  | None -> { fk_scanned = 0; fk_ok = 0; fk_quarantined = 0 }
  | Some root ->
      let qdir = Filename.concat root "quarantine" in
      let scanned = ref 0 and ok = ref 0 and quarantined = ref 0 in
      iter_entries ~root (fun ns path _st ->
          (* skip in-flight temp files: a .wip*.tmp is a concurrent writer
             mid-[put], not corruption *)
          let base = Filename.basename path in
          if not (Filename.check_suffix base ".tmp") then begin
            incr scanned;
            let intact =
              match read_all path with
              | content -> verify_frame content <> None
              | exception _ -> false
            in
            if intact then incr ok
            else begin
              (* quarantine, don't delete: the corrupt bytes are evidence
                 (bit rot? torn write? foreign file?) an operator may want *)
              mkdir_p qdir;
              let mangled_ns =
                String.map (fun c -> if c = '/' then '_' else c) ns
              in
              let dest =
                Filename.concat qdir (mangled_ns ^ "__" ^ base)
              in
              match Sys.rename path dest with
              | () ->
                  incr quarantined;
                  Obs.incr "cache.fsck.quarantined"
              | exception Sys_error _ -> ()
            end
          end);
      { fk_scanned = !scanned; fk_ok = !ok; fk_quarantined = !quarantined }

let prune ~max_age_s () =
  match root () with
  | None -> 0
  | Some root ->
      let cutoff = Unix.time () -. max_age_s in
      let removed = ref 0 in
      iter_entries ~root (fun _ns path st ->
          if st.Unix.st_mtime < cutoff then
            match Sys.remove path with
            | () ->
                incr removed;
                Obs.incr "cache.pruned"
            | exception Sys_error _ -> ());
      !removed
