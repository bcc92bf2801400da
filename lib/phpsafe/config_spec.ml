(** Textual configuration format.

    The original phpSAFE keeps its knowledge in editable configuration files
    ([class-vulnerable-input.php], [class-vulnerable-filter.php],
    [class-vulnerable_output.php], §III.A) so that "data for other CMSs can
    be easily added to the configuration" without touching the tool.  This
    module provides the same extensibility: a line-oriented spec that loads
    into a {!Config.t} and serialises back.

    Grammar (one directive per line, [#] comments):
    {v
    profile <name>
    source superglobal <$NAME> <kinds>
    source function <name> <db|file|fn> <kinds>
    source method <name> <db|file|fn> <kinds>
    sanitizer function <name> <kinds> [ctx=<contexts>]
    sanitizer method <name> <kinds> [ctx=<contexts>]
    revert <name>
    sink construct|function <name> <kind> [when=<idx>:<CONST>] [shape=url|nonurl]
    sink method <name> <kind> [when=<idx>:<CONST>] [shape=url|nonurl]
    passthrough <name>
    concat <name>
    dbwrite function|method <name> [key=<idx>] [vals=<idx,...>]
    dbread function|method <name> [key=<idx>]
    v}
    where [<kinds>] is a comma-separated subset of the vulnerability-kind
    names [xss,sqli,cmdi,lfi,ssrf,so-sqli] (with the aliases
    [path-traversal] for [lfi] and [second-order-sqli] for [so-sqli]) and
    the optional [ctx=<contexts>] narrows a sanitizer's adequacy to a
    comma-separated list of output contexts ([html-body],
    [sql-quoted-string], ... — see {!Secflow.Context}); without it the
    sanitizer is adequate in every context of its kinds.

    Sink attributes: [when=<idx>:<CONST>] restricts the sink to calls whose
    argument [<idx>] (0-based) is the bare constant [<CONST>]
    ([curl_setopt] with [CURLOPT_URL]); [shape=url] fires only when the
    checked argument's constant prefix is an [http(s)://] URL, [shape=nonurl]
    only when it is not — the split that separates the SSRF and LFI
    readings of [file_get_contents].

    [dbwrite]/[dbread] declare the persistent-storage endpoints of the
    second-order SQLi analysis: [key=<idx>] names the 0-based argument
    holding the storage key (omitted = the key is never statically known);
    [vals=<idx,...>] lists the value arguments a write stores (omitted =
    every argument except the key). *)

open Secflow

exception Spec_error of string * int  (** message, 1-based line *)

let fail line msg = raise (Spec_error (msg, line))

(* [on_unknown] decides the policy for a kind name outside the taxonomy:
   the strict parser raises, the lenient one records a warning and drops
   the kind. *)
let parse_kinds ~on_unknown line s =
  String.split_on_char ',' s
  |> List.filter_map (fun k ->
         let k = String.trim (String.lowercase_ascii k) in
         match Vuln.kind_of_spec_name k with
         | Some kind -> Some kind
         | None ->
             on_unknown line k;
             None)

let kinds_to_string kinds =
  String.concat "," (List.map Vuln.kind_spec_name kinds)

let parse_contexts line s =
  String.split_on_char ',' s
  |> List.map (fun c ->
         let c = String.trim (String.lowercase_ascii c) in
         match
           List.find_opt (fun ctx -> String.equal (Context.to_string ctx) c)
             Context.all
         with
         | Some ctx -> ctx
         | None -> fail line (Printf.sprintf "unknown context %S" c))

let contexts_to_string cs = String.concat "," (List.map Context.to_string cs)

let source_desc line cls name =
  match cls with
  | "db" -> Vuln.Database name
  | "file" -> Vuln.File_read name
  | "fn" -> Vuln.Function_return name
  | other -> fail line (Printf.sprintf "unknown source class %S (db|file|fn)" other)

let desc_class = function
  | Vuln.Database _ -> "db"
  | Vuln.File_read _ -> "file"
  | Vuln.Function_return _ | Vuln.Superglobal _ | Vuln.Uninitialized _
  | Vuln.Unknown_source ->
      "fn"

let attr_value ~name w =
  let prefix = name ^ "=" in
  if
    String.length w > String.length prefix
    && String.equal (String.sub w 0 (String.length prefix)) prefix
  then Some (String.sub w (String.length prefix) (String.length w - String.length prefix))
  else None

let parse_int line what s =
  match int_of_string_opt s with
  | Some i when i >= 0 -> i
  | _ -> fail line (Printf.sprintf "expected a non-negative integer %s, got %S" what s)

(* sink attributes: when=<idx>:<CONST> and shape=url|nonurl *)
let parse_sink_attrs line rest =
  List.fold_left
    (fun (when_const, shape) w ->
      match attr_value ~name:"when" w with
      | Some v -> (
          match String.index_opt v ':' with
          | Some at ->
              let idx = parse_int line "in when=" (String.sub v 0 at) in
              let const = String.sub v (at + 1) (String.length v - at - 1) in
              if const = "" then fail line "empty constant in when= attribute";
              (Some (idx, const), shape)
          | None -> fail line "expected when=<idx>:<CONST>")
      | None -> (
          match attr_value ~name:"shape" w with
          | Some "url" -> (when_const, `Url_prefix)
          | Some "nonurl" -> (when_const, `Non_url)
          | Some other ->
              fail line (Printf.sprintf "unknown shape %S (url|nonurl)" other)
          | None -> fail line (Printf.sprintf "unknown sink attribute %S" w)))
    (None, `Any) rest

(* dbwrite/dbread attributes: key=<idx> and (writes only) vals=<idx,...> *)
let parse_db_attrs line ~allow_vals rest =
  List.fold_left
    (fun (key_arg, val_args) w ->
      match attr_value ~name:"key" w with
      | Some v -> (parse_int line "in key=" v, val_args)
      | None -> (
          match attr_value ~name:"vals" w with
          | Some v when allow_vals ->
              ( key_arg,
                Some
                  (String.split_on_char ',' v
                  |> List.map (parse_int line "in vals=")) )
          | Some _ -> fail line "vals= is only valid on dbwrite"
          | None ->
              fail line (Printf.sprintf "unknown db endpoint attribute %S" w)))
    (-1, None) rest

let parse_place line what = function
  | "function" -> false
  | "method" -> true
  | other -> fail line (Printf.sprintf "unknown %s place %S" what other)

(** Parse a spec into a configuration, applying [on_unknown] to kind names
    outside the taxonomy. *)
let parse ~on_unknown spec : Config.t =
  let empty =
    {
      Config.name = "spec";
      superglobal_sources = [];
      function_sources = [];
      sanitizers = [];
      reverts = [];
      sinks = [];
      passthrough = [];
      concat_all_args = [];
      db_writes = [];
      db_reads = [];
    }
  in
  let parse_kinds = parse_kinds ~on_unknown in
  let lines = String.split_on_char '\n' spec in
  let config = ref empty in
  List.iteri
    (fun i raw ->
      let line_no = i + 1 in
      let line =
        match String.index_opt raw '#' with
        | Some at -> String.sub raw 0 at
        | None -> raw
      in
      let words =
        String.split_on_char ' ' line
        |> List.concat_map (String.split_on_char '\t')
        |> List.filter (fun w -> w <> "")
      in
      let c = !config in
      match words with
      | [] -> ()
      | [ "profile"; name ] -> config := { c with Config.name }
      | [ "source"; "superglobal"; name; kinds ] -> (
          match parse_kinds line_no kinds with
          | [] -> ()
          | kinds ->
              config :=
                { c with
                  Config.superglobal_sources =
                    c.Config.superglobal_sources @ [ (name, kinds) ] })
      | [ "source"; place; name; cls; kinds ] -> (
          let is_method = parse_place line_no "source" place in
          match parse_kinds line_no kinds with
          | [] -> ()
          | kinds ->
              let entry =
                Config.fn_source ~is_method name kinds
                  (source_desc line_no cls name)
              in
              config :=
                { c with
                  Config.function_sources = c.Config.function_sources @ [ entry ] })
      | "sanitizer" :: place :: name :: kinds :: rest -> (
          let is_method = parse_place line_no "sanitizer" place in
          let contexts =
            match rest with
            | [] -> None
            | [ ctx ] when String.length ctx > 4 && String.sub ctx 0 4 = "ctx="
              ->
                Some
                  (parse_contexts line_no
                     (String.sub ctx 4 (String.length ctx - 4)))
            | _ -> fail line_no "expected [ctx=<contexts>] after the kinds"
          in
          match parse_kinds line_no kinds with
          | [] -> ()
          | kinds ->
              config :=
                { c with
                  Config.sanitizers =
                    c.Config.sanitizers
                    @ [ Config.sanitizer ~is_method ?contexts name kinds ] })
      | "sink" :: place :: name :: kind :: rest -> (
          let is_method =
            match place with
            | "construct" | "function" -> false
            | "method" -> true
            | other -> fail line_no (Printf.sprintf "unknown sink place %S" other)
          in
          let when_const, shape = parse_sink_attrs line_no rest in
          match parse_kinds line_no kind with
          | [ kind ] ->
              config :=
                { c with
                  Config.sinks =
                    c.Config.sinks
                    @ [ Config.sink ~is_method ?when_const ~shape name kind ] }
          | [] -> ()
          | _ -> fail line_no "expected exactly one kind")
      | [ "revert"; name ] ->
          config := { c with Config.reverts = c.Config.reverts @ [ name ] }
      | [ "passthrough"; name ] ->
          config := { c with Config.passthrough = c.Config.passthrough @ [ name ] }
      | [ "concat"; name ] ->
          config :=
            { c with Config.concat_all_args = c.Config.concat_all_args @ [ name ] }
      | "dbwrite" :: place :: name :: rest ->
          let is_method = parse_place line_no "dbwrite" place in
          let key_arg, val_args = parse_db_attrs line_no ~allow_vals:true rest in
          config :=
            { c with
              Config.db_writes =
                c.Config.db_writes
                @ [ Config.db_rw ~is_method ~key_arg ?val_args name ] }
      | "dbread" :: place :: name :: rest ->
          let is_method = parse_place line_no "dbread" place in
          let key_arg, _ = parse_db_attrs line_no ~allow_vals:false rest in
          config :=
            { c with
              Config.db_reads =
                c.Config.db_reads @ [ Config.db_rw ~is_method ~key_arg name ] }
      | w :: _ -> fail line_no (Printf.sprintf "unknown directive %S" w))
    lines;
  !config

(** Parse a spec; an unknown kind name raises {!Spec_error}. *)
let of_string spec : Config.t =
  parse spec ~on_unknown:(fun line k ->
      fail line (Printf.sprintf "unknown kind %S" k))

(** Parse a spec; unknown kind names become warnings, and the entries that
    mention them load with the unknown kinds dropped (an entry whose whole
    kind list is unknown is skipped). *)
let of_string_with_warnings spec : Config.t * string list =
  let warnings = ref [] in
  let c =
    parse spec ~on_unknown:(fun line k ->
        warnings :=
          Printf.sprintf "line %d: unknown kind %S (skipped)" line k
          :: !warnings)
  in
  (c, List.rev !warnings)

(** Serialise a configuration back to the spec format; a fixpoint of
    {!of_string} ∘ [to_string] up to the [db|file|fn] source classes. *)
let to_string (c : Config.t) : string =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "profile %s" c.Config.name;
  List.iter
    (fun (name, kinds) ->
      line "source superglobal %s %s" name (kinds_to_string kinds))
    c.Config.superglobal_sources;
  List.iter
    (fun (e : Config.source_entry) ->
      line "source %s %s %s %s"
        (if e.Config.src_is_method then "method" else "function")
        e.Config.src_name
        (desc_class e.Config.src_desc)
        (kinds_to_string e.Config.src_kinds))
    c.Config.function_sources;
  List.iter
    (fun (e : Config.sanitizer_entry) ->
      let default_ctx = Context.all_for_kinds e.Config.san_kinds in
      let ctx_suffix =
        (* only spell out a narrowed adequacy; the default is implied *)
        if
          List.sort compare e.Config.san_contexts
          = List.sort compare default_ctx
        then ""
        else " ctx=" ^ contexts_to_string e.Config.san_contexts
      in
      line "sanitizer %s %s %s%s"
        (if e.Config.san_is_method then "method" else "function")
        e.Config.san_name
        (kinds_to_string e.Config.san_kinds)
        ctx_suffix)
    c.Config.sanitizers;
  List.iter (fun name -> line "revert %s" name) c.Config.reverts;
  List.iter
    (fun (e : Config.sink_entry) ->
      let when_suffix =
        match e.Config.snk_when_const with
        | None -> ""
        | Some (idx, const) -> Printf.sprintf " when=%d:%s" idx const
      in
      let shape_suffix =
        match e.Config.snk_path_shape with
        | `Any -> ""
        | `Url_prefix -> " shape=url"
        | `Non_url -> " shape=nonurl"
      in
      line "sink %s %s %s%s%s"
        (if e.Config.snk_is_method then "method" else "function")
        e.Config.snk_name
        (Vuln.kind_spec_name e.Config.snk_kind)
        when_suffix shape_suffix)
    c.Config.sinks;
  List.iter (fun name -> line "passthrough %s" name) c.Config.passthrough;
  List.iter (fun name -> line "concat %s" name) c.Config.concat_all_args;
  let db_line directive (e : Config.db_rw_entry) ~with_vals =
    let key_suffix =
      if e.Config.rw_key_arg < 0 then ""
      else Printf.sprintf " key=%d" e.Config.rw_key_arg
    in
    let vals_suffix =
      match (with_vals, e.Config.rw_val_args) with
      | true, Some idxs ->
          " vals=" ^ String.concat "," (List.map string_of_int idxs)
      | _ -> ""
    in
    line "%s %s %s%s%s" directive
      (if e.Config.rw_is_method then "method" else "function")
      e.Config.rw_name key_suffix vals_suffix
  in
  List.iter (db_line "dbwrite" ~with_vals:true) c.Config.db_writes;
  List.iter (db_line "dbread" ~with_vals:false) c.Config.db_reads;
  Buffer.contents buf

(* -- profile validation --------------------------------------------------- *)

let place is_method = if is_method then "method" else "function"

let dups to_name entries =
  let tbl = Hashtbl.create 16 in
  List.filter_map
    (fun e ->
      let n = to_name e in
      if Hashtbl.mem tbl n then Some n
      else begin
        Hashtbl.add tbl n ();
        None
      end)
    entries

(** Sanity-check a profile and return a list of human-readable warnings:
    duplicate entries within a section, and names registered both as a
    source and as a sanitizer for the same vulnerability kind (one of the
    two is certainly a configuration mistake — the analyzer would both
    taint and clear at the same call).  An empty list means the profile is
    coherent; the builtin profiles all are.

    With [~base], [c] is an extension merged after [base]
    ({!Config.extend}), and every entry of [c] that [base] already answers
    is reported as shadowed: the first entry for a name wins, so the
    extension's entry is never consulted.  Sinks accumulate (every entry
    for a name fires) and reverts, passthroughs and concats carry no data,
    so only sources, sanitizers and DB endpoints can be shadowed. *)
let validate ?base (c : Config.t) : string list =
  let warnings = ref [] in
  let warn fmt = Printf.ksprintf (fun s -> warnings := s :: !warnings) fmt in
  List.iter
    (fun n -> warn "duplicate superglobal source %s" n)
    (dups fst c.Config.superglobal_sources);
  List.iter
    (fun (p, n) -> warn "duplicate %s source %s" p n)
    (dups
       (fun (e : Config.source_entry) ->
         (place e.Config.src_is_method, e.Config.src_name))
       c.Config.function_sources);
  List.iter
    (fun (p, n) -> warn "duplicate %s sanitizer %s" p n)
    (dups
       (fun (e : Config.sanitizer_entry) ->
         (place e.Config.san_is_method, e.Config.san_name))
       c.Config.sanitizers);
  List.iter (fun n -> warn "duplicate revert %s" n) (dups Fun.id c.Config.reverts);
  List.iter
    (fun (p, n, k) ->
      warn "duplicate %s sink %s (%s)" p n (Vuln.kind_to_string k))
    (dups
       (fun (e : Config.sink_entry) ->
         ( place e.Config.snk_is_method,
           e.Config.snk_name,
           e.Config.snk_kind,
           e.Config.snk_when_const,
           e.Config.snk_path_shape ))
       c.Config.sinks
    |> List.map (fun (p, n, k, _, _) -> (p, n, k)));
  List.iter
    (fun n -> warn "duplicate passthrough %s" n)
    (dups Fun.id c.Config.passthrough);
  List.iter
    (fun n -> warn "duplicate concat %s" n)
    (dups Fun.id c.Config.concat_all_args);
  List.iter
    (fun (p, n) -> warn "duplicate %s dbwrite %s" p n)
    (dups
       (fun (e : Config.db_rw_entry) ->
         (place e.Config.rw_is_method, e.Config.rw_name))
       c.Config.db_writes);
  List.iter
    (fun (p, n) -> warn "duplicate %s dbread %s" p n)
    (dups
       (fun (e : Config.db_rw_entry) ->
         (place e.Config.rw_is_method, e.Config.rw_name))
       c.Config.db_reads);
  (* a name that both introduces and clears the same kind of taint *)
  List.iter
    (fun (s : Config.source_entry) ->
      List.iter
        (fun (san : Config.sanitizer_entry) ->
          if
            String.equal s.Config.src_name san.Config.san_name
            && Bool.equal s.Config.src_is_method san.Config.san_is_method
          then
            List.iter
              (fun k ->
                if List.exists (Vuln.equal_kind k) san.Config.san_kinds then
                  warn "%s %s is both a source and a sanitizer for %s"
                    (place s.Config.src_is_method)
                    s.Config.src_name (Vuln.kind_to_string k))
              s.Config.src_kinds)
        c.Config.sanitizers)
    c.Config.function_sources;
  Option.iter
    (fun (base : Config.t) ->
      let ix = Config.index base in
      let shadowed role name =
        warn "%s %s is shadowed by %s (first entry wins)" role name
          base.Config.name
      in
      List.iter
        (fun (n, _) ->
          if Config.is_superglobal_source ix n <> None then
            shadowed "source superglobal" n)
        c.Config.superglobal_sources;
      List.iter
        (fun (e : Config.source_entry) ->
          let find =
            if e.Config.src_is_method then Config.find_method_source
            else Config.find_function_source
          in
          if find ix e.Config.src_name <> None then
            shadowed
              ("source " ^ place e.Config.src_is_method)
              e.Config.src_name)
        c.Config.function_sources;
      List.iter
        (fun (e : Config.sanitizer_entry) ->
          let find =
            if e.Config.san_is_method then Config.find_method_sanitizer
            else Config.find_sanitizer
          in
          if find ix e.Config.san_name <> None then
            shadowed
              ("sanitizer " ^ place e.Config.san_is_method)
              e.Config.san_name)
        c.Config.sanitizers;
      let rw directive find (e : Config.db_rw_entry) =
        if find ix ~is_method:e.Config.rw_is_method e.Config.rw_name <> None
        then
          shadowed
            (directive ^ " " ^ place e.Config.rw_is_method)
            e.Config.rw_name
      in
      List.iter (rw "dbwrite" Config.find_db_write) c.Config.db_writes;
      List.iter (rw "dbread" Config.find_db_read) c.Config.db_reads)
    base;
  List.rev !warnings

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** Load a spec file from disk. *)
let load path : Config.t = of_string (read_file path)

let load_with_warnings path : Config.t * string list =
  of_string_with_warnings (read_file path)
