(** Shared scan execution — see scan.mli. *)

type opts = {
  tool : string;
  kind : Secflow.Vuln.kind option;
  contexts : bool;
  flow : bool;
  second_order : bool;
}

let default =
  { tool = "phpsafe"; kind = None; contexts = false; flow = false;
    second_order = false }

let kind_of_string s =
  if String.equal s "all" then Ok None
  else
    match Secflow.Vuln.kind_of_spec_name s with
    | Some k -> Ok (Some k)
    | None -> Error ("unknown vulnerability kind: " ^ s)

let kind_to_string = function
  | None -> "all"
  | Some k -> Secflow.Vuln.kind_spec_name k

let tool_of ?config opts =
  match String.lowercase_ascii opts.tool with
  | "phpsafe" ->
      let base = Phpsafe.default_options in
      let phpsafe_opts =
        { base with
          Phpsafe.config =
            (match config with
            | Some c -> Lazy.force c
            | None -> base.Phpsafe.config);
          Phpsafe.infer_contexts = opts.contexts;
          Phpsafe.flow_sensitive = opts.flow }
      in
      Ok
        { Secflow.Tool.name = "phpSAFE";
          analyze_project =
            (fun p ->
              if opts.second_order then
                Phpsafe.analyze_project_so ~opts:phpsafe_opts p
              else Phpsafe.analyze_project ~opts:phpsafe_opts p) }
  | "rips" -> Ok Rips.tool
  | "pixy" -> Ok Pixy.tool
  | other -> Error ("unknown tool: " ^ other)

(* Chaos/test instrumentation: runs at the top of [run], inside the
   caller's deadline and tenant scopes, so a hook that burns time
   cooperatively ([Thread.delay] + [Secflow.Deadline.check]) simulates an
   arbitrarily slow scan that still honours cancellation. *)
let before_analyze_hook : (Phplang.Project.t -> unit) option Atomic.t =
  Atomic.make None

let set_before_analyze_hook h = Atomic.set before_analyze_hook h

let run ?config opts project =
  (match Atomic.get before_analyze_hook with
  | Some f -> f project
  | None -> ());
  let tool =
    match tool_of ?config opts with Ok t -> t | Error msg -> failwith msg
  in
  let result = tool.Secflow.Tool.analyze_project project in
  let findings =
    match opts.kind with
    | None -> result.Secflow.Report.findings
    | Some k ->
        List.filter
          (fun (f : Secflow.Report.finding) ->
            Secflow.Vuln.equal_kind f.Secflow.Report.kind k)
          result.Secflow.Report.findings
  in
  (tool.Secflow.Tool.name, { result with Secflow.Report.findings })

let exit_code (result : Secflow.Report.result) =
  if Secflow.Report.failed_files result <> [] then 2
  else if result.Secflow.Report.findings <> [] then 1
  else 0

let exit_code_of_report raw =
  let module Json = Secflow.Json in
  match Json.parse raw with
  | Error _ -> 0
  | Ok doc ->
      let failed =
        Option.bind (Json.member "summary" doc) (Json.member "failedFiles")
        |> fun o -> Option.bind o Json.to_int_opt |> Option.value ~default:0
      in
      let findings =
        Option.bind (Json.member "findings" doc) Json.to_list_opt
        |> Option.value ~default:[]
      in
      if failed > 0 then 2 else if findings <> [] then 1 else 0

let run_json opts project =
  let tool, result = run opts project in
  Secflow.Report.to_json ~tool result
