(** Length-framed, versioned JSON wire protocol — see protocol.mli. *)

module Json = Secflow.Json

let version = "phpsafe-serve/1"

let default_max_frame_bytes = 64 * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Frame I/O                                                          *)
(* ------------------------------------------------------------------ *)

exception Closed

let write_all fd buf ofs len =
  let rec go ofs len =
    if len > 0 then begin
      match Unix.write fd buf ofs len with
      | n -> go (ofs + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) ->
          (* a signal mid-write is a retry, not a dead peer — same
             discipline as the accept loop *)
          go ofs len
      | exception
          Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
        ->
          raise Closed
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          (* SO_SNDTIMEO expired with the peer's window still full: a
             stalled reader.  The frame can no longer be delivered
             whole, so the connection is unusable. *)
          raise Closed
    end
  in
  go ofs len

let write_frame fd payload =
  let len = String.length payload in
  let header = Bytes.create 4 in
  Bytes.set_uint8 header 0 ((len lsr 24) land 0xff);
  Bytes.set_uint8 header 1 ((len lsr 16) land 0xff);
  Bytes.set_uint8 header 2 ((len lsr 8) land 0xff);
  Bytes.set_uint8 header 3 (len land 0xff);
  write_all fd header 0 4;
  write_all fd (Bytes.of_string payload) 0 len

type read_result =
  | Frame of string
  | Eof
  | Oversized of int
  | Timed_out

(* Outcome of reading exactly [len] bytes.  Partial reads (slow or
   chunking peers) just loop; coalesced frames are untouched because only
   [len] bytes are consumed. *)
type rr = Rr_data of bytes | Rr_eof | Rr_timeout

let really_read fd len =
  let buf = Bytes.create len in
  let rec go ofs =
    if ofs >= len then Rr_data buf
    else
      match Unix.read fd buf ofs (len - ofs) with
      | 0 -> Rr_eof
      | n -> go (ofs + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) ->
          (* a signal mid-read is a retry, not a dead peer *)
          go ofs
      | exception
          Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _)
        ->
          Rr_eof
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          (* SO_RCVTIMEO expired: the peer stalled mid-frame (or went
             silent between frames).  The stream can no longer be
             resynchronized, so the caller should drop the connection. *)
          Rr_timeout
  in
  go 0

let read_frame ?(max_bytes = default_max_frame_bytes) fd =
  match really_read fd 4 with
  | Rr_eof -> Eof
  | Rr_timeout -> Timed_out
  | Rr_data header ->
      let len =
        (Bytes.get_uint8 header 0 lsl 24)
        lor (Bytes.get_uint8 header 1 lsl 16)
        lor (Bytes.get_uint8 header 2 lsl 8)
        lor Bytes.get_uint8 header 3
      in
      if len > max_bytes then Oversized len
      else if len = 0 then Frame ""
      else (
        match really_read fd len with
        | Rr_eof -> Eof
        | Rr_timeout -> Timed_out
        | Rr_data payload -> Frame (Bytes.unsafe_to_string payload))

(* ------------------------------------------------------------------ *)
(* Requests                                                           *)
(* ------------------------------------------------------------------ *)

type scan_request = {
  sr_id : string option;
  sr_tenant : string option;
  sr_project : Phplang.Project.t;
  sr_opts : Scan.opts;
  sr_budget : Secflow.Budget.t;
  sr_deadline_ms : int option;
}

type request =
  | Scan of scan_request
  | Status of string option
  | Metrics of string option
  | Shutdown of string option

type error = {
  e_code : string;
  e_msg : string;
  e_id : string option;
  e_op : string;
}

let err ?(op = "") ?id code msg =
  Error { e_code = code; e_msg = msg; e_id = id; e_op = op }

let decode_budget ?id ~op json =
  let default = Secflow.Budget.default in
  match json with
  | None -> Ok default
  | Some (Json.Obj _ as obj) ->
      let field name fallback =
        match Json.member name obj with
        | None -> Ok fallback
        | Some v -> (
            match Json.to_int_opt v with
            | Some n when n >= 1 -> Ok n
            | _ -> err ?id ~op "bad_request"
                     (Printf.sprintf "budget.%s must be a positive integer"
                        name))
      in
      Result.bind (field "parse_depth" default.Secflow.Budget.parse_depth)
        (fun parse_depth ->
          Result.bind
            (field "fixpoint_passes" default.Secflow.Budget.fixpoint_passes)
            (fun fixpoint_passes ->
              Result.bind
                (field "include_depth" default.Secflow.Budget.include_depth)
                (fun include_depth ->
                  Result.bind
                    (field "include_files"
                       default.Secflow.Budget.include_files)
                    (fun include_files ->
                      Ok
                        { Secflow.Budget.parse_depth; fixpoint_passes;
                          include_depth; include_files }))))
  | Some _ -> err ?id ~op "bad_request" "budget must be an object"

let decode_project ?id ~op json =
  match json with
  | None -> err ?id ~op "bad_request" "scan requires a project"
  | Some obj -> (
      let name =
        match Json.member "name" obj with
        | Some (Json.String s) when s <> "" -> Some s
        | _ -> None
      in
      match (name, Option.bind (Json.member "files" obj) Json.to_list_opt) with
      | None, _ -> err ?id ~op "bad_request" "project.name must be a non-empty string"
      | _, None -> err ?id ~op "bad_request" "project.files must be a list"
      | Some name, Some files ->
          let decode_file f =
            match
              ( Option.bind (Json.member "path" f) Json.to_string_opt,
                Option.bind (Json.member "source" f) Json.to_string_opt )
            with
            | Some path, Some source
              when path <> "" && not (String.contains path '\000') ->
                Ok { Phplang.Project.path; source }
            | _ ->
                err ?id ~op "bad_request"
                  "each project file needs a \"path\" and a \"source\" string"
          in
          let rec decode_files acc = function
            | [] -> Ok (List.rev acc)
            | f :: rest -> (
                match decode_file f with
                | Ok file -> decode_files (file :: acc) rest
                | Error e -> Error e)
          in
          Result.map
            (fun files -> Phplang.Project.make ~name files)
            (decode_files [] files))

let decode_request payload =
  match Json.parse payload with
  | Error msg -> err "bad_json" ("request is not valid JSON: " ^ msg)
  | Ok json -> (
      let id = Option.bind (Json.member "id" json) Json.to_string_opt in
      let op =
        Option.bind (Json.member "op" json) Json.to_string_opt
        |> Option.value ~default:""
      in
      match Option.bind (Json.member "proto" json) Json.to_string_opt with
      | None -> err ?id ~op "bad_proto" "missing \"proto\" field"
      | Some p when p <> version ->
          err ?id ~op "bad_proto"
            (Printf.sprintf "unsupported protocol %S (this server speaks %s)"
               p version)
      | Some _ -> (
          match op with
          | "status" -> Ok (Status id)
          | "metrics" -> Ok (Metrics id)
          | "shutdown" -> Ok (Shutdown id)
          | "scan" -> (
              let tenant =
                Option.bind (Json.member "tenant" json) Json.to_string_opt
              in
              match tenant with
              | Some t when not (Phplang.Store.valid_tenant t) ->
                  err ?id ~op "bad_request"
                    (Printf.sprintf
                       "invalid tenant %S (allowed: A-Za-z0-9_.-)" t)
              | _ -> (
                  let tool =
                    Option.bind (Json.member "tool" json) Json.to_string_opt
                    |> Option.value ~default:"phpsafe"
                  in
                  let kind_s =
                    Option.bind (Json.member "kind" json) Json.to_string_opt
                    |> Option.value ~default:"all"
                  in
                  let flag name =
                    Option.bind (Json.member name json) Json.to_bool_opt
                    |> Option.value ~default:false
                  in
                  match Scan.kind_of_string kind_s with
                  | Error msg -> err ?id ~op "bad_request" msg
                  | Ok kind -> (
                      let opts =
                        { Scan.tool; kind; contexts = flag "contexts";
                          flow = flag "flow";
                          second_order = flag "second_order" }
                      in
                      match Scan.tool_of opts with
                      | Error msg -> err ?id ~op "bad_request" msg
                      | Ok _ -> (
                          let deadline =
                            match Json.member "deadline_ms" json with
                            | None -> Ok None
                            | Some v -> (
                                match Json.to_int_opt v with
                                | Some ms when ms >= 1 -> Ok (Some ms)
                                | _ ->
                                    err ?id ~op "bad_request"
                                      "deadline_ms must be a positive \
                                       integer (milliseconds)")
                          in
                          match deadline with
                          | Error e -> Error e
                          | Ok deadline_ms -> (
                          match
                            decode_budget ?id ~op (Json.member "budget" json)
                          with
                          | Error e -> Error e
                          | Ok budget -> (
                              match
                                decode_project ?id ~op
                                  (Json.member "project" json)
                              with
                              | Error e -> Error e
                              | Ok project ->
                                  Ok
                                    (Scan
                                       { sr_id = id; sr_tenant = tenant;
                                         sr_project = project;
                                         sr_opts = opts;
                                         sr_budget = budget;
                                         sr_deadline_ms = deadline_ms })))))))
          | "" -> err ?id "bad_request" "missing \"op\" field"
          | other ->
              err ?id ~op "bad_request"
                (Printf.sprintf
                   "unknown op %S (expected scan, status, metrics or \
                    shutdown)"
                   other)))

let encode_scan_request sr =
  let b = Secflow.Budget.default in
  let budget_fields =
    let f name v d = if v = d then [] else [ (name, Json.Int v) ] in
    f "parse_depth" sr.sr_budget.Secflow.Budget.parse_depth
      b.Secflow.Budget.parse_depth
    @ f "fixpoint_passes" sr.sr_budget.Secflow.Budget.fixpoint_passes
        b.Secflow.Budget.fixpoint_passes
    @ f "include_depth" sr.sr_budget.Secflow.Budget.include_depth
        b.Secflow.Budget.include_depth
    @ f "include_files" sr.sr_budget.Secflow.Budget.include_files
        b.Secflow.Budget.include_files
  in
  Json.to_string
    (Json.Obj
       ([ ("proto", Json.String version); ("op", Json.String "scan") ]
       @ (match sr.sr_id with
         | Some id -> [ ("id", Json.String id) ]
         | None -> [])
       @ (match sr.sr_tenant with
         | Some t -> [ ("tenant", Json.String t) ]
         | None -> [])
       @ [ ("tool", Json.String sr.sr_opts.Scan.tool);
           ("kind", Json.String (Scan.kind_to_string sr.sr_opts.Scan.kind));
           ("contexts", Json.Bool sr.sr_opts.Scan.contexts);
           ("flow", Json.Bool sr.sr_opts.Scan.flow);
           ("second_order", Json.Bool sr.sr_opts.Scan.second_order) ]
       @ (match sr.sr_deadline_ms with
         | Some ms -> [ ("deadline_ms", Json.Int ms) ]
         | None -> [])
       @ (match budget_fields with
         | [] -> []
         | fields -> [ ("budget", Json.Obj fields) ])
       @ [ ("project",
            Json.Obj
              [ ("name", Json.String sr.sr_project.Phplang.Project.name);
                ("files",
                 Json.List
                   (List.map
                      (fun (f : Phplang.Project.file) ->
                        Json.Obj
                          [ ("path", Json.String f.Phplang.Project.path);
                            ("source", Json.String f.Phplang.Project.source)
                          ])
                      sr.sr_project.Phplang.Project.files)) ]) ]))

let encode_simple_request ~op ?id () =
  Json.to_string
    (Json.Obj
       ([ ("proto", Json.String version); ("op", Json.String op) ]
       @ match id with Some id -> [ ("id", Json.String id) ] | None -> []))

(* ------------------------------------------------------------------ *)
(* Replies                                                            *)
(* ------------------------------------------------------------------ *)

let ok_reply ~op ?id fields =
  Json.to_string
    (Json.Obj
       ([ ("proto", Json.String version); ("ok", Json.Bool true);
          ("op", Json.String op) ]
       @ (match id with Some id -> [ ("id", Json.String id) ] | None -> [])
       @ fields))

(* The report document is spliced in verbatim (not re-encoded) as the
   final field, so the client can cut it back out byte-for-byte. *)
let scan_reply ?id ~report () =
  ok_reply ~op:"scan" ?id [ ("report", Json.Raw report) ]

let error_reply ~op ?id ~code ~msg () =
  Json.to_string
    (Json.Obj
       ([ ("proto", Json.String version); ("ok", Json.Bool false);
          ("op", Json.String op) ]
       @ (match id with Some id -> [ ("id", Json.String id) ] | None -> [])
       @ [ ("error",
            Json.Obj
              [ ("code", Json.String code); ("message", Json.String msg) ])
         ]))

(* the bytes just before the spliced report: [scan_reply]'s last key *)
let report_marker = "," ^ Json.to_string (Json.String "report") ^ ":"

let scan_report_of_reply reply =
  match Json.parse reply with
  | Error msg -> Error ("reply is not valid JSON: " ^ msg)
  | Ok json -> (
      match Option.bind (Json.member "ok" json) Json.to_bool_opt with
      | Some true -> (
          (* the marker bytes cannot occur inside an encoded string (every
             interior quote is escaped), so the first occurrence is the
             real field boundary *)
          let mlen = String.length report_marker in
          let rec find i =
            if i + mlen > String.length reply then None
            else if String.sub reply i mlen = report_marker then Some i
            else find (i + 1)
          in
          match find 0 with
          | Some i ->
              Ok (String.sub reply (i + mlen) (String.length reply - i - mlen - 1))
          | None -> Error "scan reply carries no report field")
      | Some false ->
          let code, msg =
            match Json.member "error" json with
            | Some e ->
                ( Option.bind (Json.member "code" e) Json.to_string_opt
                  |> Option.value ~default:"unknown",
                  Option.bind (Json.member "message" e) Json.to_string_opt
                  |> Option.value ~default:"" )
            | None -> ("unknown", "")
          in
          Error (Printf.sprintf "server error [%s]: %s" code msg)
      | None -> Error "reply carries no \"ok\" field")
