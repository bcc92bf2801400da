(** phpSAFE configuration stage (paper §III.A).

    The configuration correlates the vulnerability classes with PHP-language
    and CMS-framework functions, organised in the paper's four sections:
    potentially-malicious {e sources}, {e sanitization} functions,
    {e revert} functions (which undo sanitization, e.g. [stripslashes]) and
    sensitive {e output} (sink) functions.  The generic entries mirror the
    paper's [class-vulnerable-input.php] / [class-vulnerable-filter.php] /
    [class-vulnerable_output.php] files, which were themselves "based on the
    default configurations of the RIPS tool". *)

open Secflow

type source_entry = {
  src_name : string;       (** superglobal ("$_GET"), function or method name *)
  src_is_method : bool;    (** matched as [$obj->name(...)] when true *)
  src_kinds : Vuln.kind list;  (** which vulnerabilities it can feed *)
  src_desc : Vuln.source;
}

type sanitizer_entry = {
  san_name : string;
  san_is_method : bool;
  san_kinds : Vuln.kind list;  (** kinds this function neutralises *)
  san_contexts : Context.t list;
      (** output contexts the sanitizer is adequate for; defaults to every
          context of [san_kinds] (the flat, context-free behaviour).  Only
          consulted by the context-inference pass ([--contexts]). *)
}

(** Restriction on the {e statically-known prefix} of the argument a sink
    receives, used to split dual-role sinks such as [file_get_contents]:
    with a constant ["http(s)://"] prefix the call is a remote fetch (SSRF
    target); any other shape — including a bare dynamic argument — is a
    filesystem read (path-traversal target).  [`Any] ignores the shape. *)
type path_shape = [ `Any | `Url_prefix | `Non_url ]

type sink_entry = {
  snk_name : string;       (** "echo" and "print" are language constructs *)
  snk_is_method : bool;
  snk_kind : Vuln.kind;
  snk_when_const : (int * string) option;
      (** fire only when argument [i] is the named PHP constant — e.g.
          [curl_setopt] is an SSRF sink only for [CURLOPT_URL] *)
  snk_path_shape : path_shape;
      (** restriction on the checked argument's static prefix *)
}

(** One database write or read the second-order pass correlates
    ([--second-order]): a write reached by tainted data records its key;
    a read whose key matches a recorded write returns
    {!Vuln.Second_order_sqli}-tainted data in the replay phase. *)
type db_rw_entry = {
  rw_name : string;
  rw_is_method : bool;
  rw_key_arg : int;
      (** argument carrying the table/option name; [-1] = no statically
          attributable key (matches any, recorded as ["*"]) *)
  rw_val_args : int list option;
      (** value arguments whose taint constitutes a tainted write;
          [None] = every argument except the key (writes only) *)
}

type t = {
  name : string;
  superglobal_sources : (string * Vuln.kind list) list;
  function_sources : source_entry list;
  sanitizers : sanitizer_entry list;
  reverts : string list;    (** functions that undo sanitization *)
  sinks : sink_entry list;
  passthrough : string list;
      (** builtins that propagate their (first) argument's taint unchanged:
          [trim], [substr], ... *)
  concat_all_args : string list;
      (** builtins whose result joins the taint of all arguments:
          [sprintf], [implode], [str_replace], ... *)
  db_writes : db_rw_entry list;
      (** persistent-store writes the second-order pass records *)
  db_reads : db_rw_entry list;
      (** persistent-store reads the second-order replay phase taints *)
}

let both = [ Vuln.Xss; Vuln.Sqli ]
let xss = [ Vuln.Xss ]
let sqli = [ Vuln.Sqli ]

(* Direct attacker input can feed every injection family.  Second-order
   SQLi is deliberately absent: its taint exists only in the replay phase,
   introduced at matching database reads, never at ordinary sources. *)
let direct = [ Vuln.Xss; Vuln.Sqli; Vuln.Cmdi; Vuln.Path_traversal; Vuln.Ssrf ]

(* Sanitizers that reduce a value to a number/hash neutralise every
   injection family at once (including replayed second-order taint). *)
let numeric = Vuln.all_kinds

(* An escape-at-write is treated as sanitizing the stored value, so SQL
   string escapes cover the second-order kind too (a documented
   under-approximation: re-expansion after retrieval is not modeled). *)
let sqli_so = [ Vuln.Sqli; Vuln.Second_order_sqli ]

let fn_source ?(is_method = false) name kinds desc =
  { src_name = name; src_is_method = is_method; src_kinds = kinds; src_desc = desc }

let sanitizer ?(is_method = false) ?contexts name kinds =
  let contexts =
    match contexts with Some cs -> cs | None -> Context.all_for_kinds kinds
  in
  { san_name = name; san_is_method = is_method; san_kinds = kinds;
    san_contexts = contexts }

let sink ?(is_method = false) ?when_const ?(shape = `Any) name kind =
  { snk_name = name; snk_is_method = is_method; snk_kind = kind;
    snk_when_const = when_const; snk_path_shape = shape }

let db_rw ?(is_method = false) ?(key_arg = -1) ?val_args name =
  { rw_name = name; rw_is_method = is_method; rw_key_arg = key_arg;
    rw_val_args = val_args }

(* Adequacy matrix for the generic sanitizers (context pass, §VI future
   work).  [htmlspecialchars] without ENT_QUOTES leaves single quotes alone
   and never helps outside quotes, so it covers the HTML body and
   double-quoted attributes only; URL-encoders make any attribute or JS
   string safe but are no HTML-body escape; [addslashes] & co. only matter
   inside a quoted SQL string — a numeric or identifier position ignores
   the added backslashes entirely. *)
let html_text_ctx = [ Context.Html_body; Context.Html_attr_quoted ]
let html_body_ctx = [ Context.Html_body ]

let url_enc_ctx =
  [ Context.Url; Context.Html_attr_quoted; Context.Html_attr_unquoted;
    Context.Js_string ]

let js_ctx = [ Context.Js_string ]
let sql_quoted_ctx = [ Context.Sql_quoted_string ]
let shell_ctx = [ Context.Shell_arg ]
let path_ctx = [ Context.File_path ]
let url_remote_ctx = [ Context.Url_remote ]

(** Generic PHP configuration: detects XSS and SQLi in any PHP code,
    framework-agnostic ("ready for detecting generic XSS and SQLi
    vulnerabilities", §III.A). *)
let generic_php =
  {
    name = "generic-php";
    superglobal_sources =
      [ ("$_GET", direct); ("$_POST", direct); ("$_COOKIE", direct);
        ("$_REQUEST", direct); ("$_FILES", direct); ("$_SERVER", direct) ];
    function_sources =
      [ fn_source "file_get_contents" both (Vuln.File_read "file_get_contents");
        fn_source "fgets" both (Vuln.File_read "fgets");
        fn_source "fread" both (Vuln.File_read "fread");
        fn_source "file" both (Vuln.File_read "file");
        fn_source "fscanf" both (Vuln.File_read "fscanf");
        fn_source "mysql_query" xss (Vuln.Database "mysql_query");
        fn_source "mysql_fetch_assoc" xss (Vuln.Database "mysql_fetch_assoc");
        fn_source "mysql_fetch_array" xss (Vuln.Database "mysql_fetch_array");
        fn_source "mysql_fetch_row" xss (Vuln.Database "mysql_fetch_row");
        fn_source "mysql_fetch_object" xss (Vuln.Database "mysql_fetch_object");
        fn_source "mysql_result" xss (Vuln.Database "mysql_result");
        fn_source "getenv" both (Vuln.Function_return "getenv") ];
    sanitizers =
      [ sanitizer "htmlspecialchars" xss ~contexts:html_text_ctx;
        sanitizer "htmlentities" xss ~contexts:html_text_ctx;
        sanitizer "strip_tags" xss ~contexts:html_body_ctx;
        sanitizer "urlencode" xss ~contexts:url_enc_ctx;
        sanitizer "rawurlencode" xss ~contexts:url_enc_ctx;
        sanitizer "json_encode" xss ~contexts:js_ctx;
        sanitizer "intval" numeric;
        sanitizer "floatval" numeric;
        sanitizer "abs" numeric;
        sanitizer "count" numeric;
        sanitizer "strlen" numeric;
        sanitizer "md5" numeric;
        sanitizer "sha1" numeric;
        sanitizer "crc32" numeric;
        sanitizer "number_format" numeric;
        sanitizer "addslashes" sqli_so ~contexts:sql_quoted_ctx;
        sanitizer "mysql_escape_string" sqli_so ~contexts:sql_quoted_ctx;
        sanitizer "mysql_real_escape_string" sqli_so ~contexts:sql_quoted_ctx;
        sanitizer "escapeshellarg" [ Vuln.Cmdi ] ~contexts:shell_ctx;
        sanitizer "escapeshellcmd" [ Vuln.Cmdi ] ~contexts:shell_ctx;
        sanitizer "basename" [ Vuln.Path_traversal ] ~contexts:path_ctx;
        sanitizer "realpath" [ Vuln.Path_traversal ] ~contexts:path_ctx ];
    reverts =
      [ "stripslashes"; "stripcslashes"; "urldecode"; "rawurldecode";
        "html_entity_decode"; "htmlspecialchars_decode"; "base64_decode" ];
    sinks =
      [ sink "echo" Vuln.Xss;
        sink "print" Vuln.Xss;
        sink "printf" Vuln.Xss;
        sink "print_r" Vuln.Xss;
        sink "vprintf" Vuln.Xss;
        sink "die" Vuln.Xss;
        sink "exit" Vuln.Xss;
        sink "mysql_query" Vuln.Sqli;
        sink "mysql_db_query" Vuln.Sqli;
        sink "mysql_unbuffered_query" Vuln.Sqli;
        sink "system" Vuln.Cmdi;
        sink "exec" Vuln.Cmdi;
        sink "shell_exec" Vuln.Cmdi;
        sink "passthru" Vuln.Cmdi;
        sink "popen" Vuln.Cmdi;
        sink "proc_open" Vuln.Cmdi;
        sink "include" Vuln.Path_traversal;
        sink "fopen" Vuln.Path_traversal ~shape:`Non_url;
        sink "readfile" Vuln.Path_traversal ~shape:`Non_url;
        sink "file_get_contents" Vuln.Path_traversal ~shape:`Non_url;
        sink "file_get_contents" Vuln.Ssrf ~shape:`Url_prefix;
        sink "curl_init" Vuln.Ssrf;
        sink "curl_setopt" Vuln.Ssrf ~when_const:(1, "CURLOPT_URL");
        sink "fsockopen" Vuln.Ssrf ];
    passthrough =
      [ "trim"; "ltrim"; "rtrim"; "substr"; "strtolower"; "strtoupper";
        "ucfirst"; "ucwords"; "nl2br"; "strval"; "stristr"; "strstr";
        "wordwrap"; "chunk_split"; "strrev" ];
    concat_all_args = [ "sprintf"; "vsprintf"; "implode"; "join"; "str_replace"; "preg_replace"; "str_pad" ];
    db_writes = [];
    db_reads = [];
  }

module H = Hashtbl.Make (String)

module Rw_key = struct
  type t = bool * string

  let equal (m, n) (m', n') = Bool.equal m m' && String.equal n n'
  let hash = Hashtbl.hash
end

module Rw = Hashtbl.Make (Rw_key)

(** Role lookups over one profile, built once per analysis run.  Each
    table answers what a scan of the spec-ordered lists would: the first
    entry for a name wins for sources, sanitizers, sanitizer contexts and
    DB endpoints, and a name maps to every sink entry it has, in spec order
    ([file_get_contents] → its [`Non_url] entry, then its [`Url_prefix]
    one).  The lists in {!t} stay the spec order that [Config_spec] prints
    and validates; the index is never stored in {!t}, so a [{ c with … }]
    update cannot carry a stale one along. *)
type index = {
  ix_superglobals : Vuln.kind list H.t;
  ix_fn_sources : source_entry H.t;
  ix_m_sources : source_entry H.t;
  ix_fn_sanitizers : sanitizer_entry H.t;
  ix_m_sanitizers : sanitizer_entry H.t;
  ix_san_contexts : Context.t list H.t;
      (** function and method sanitizers alike: the applied-sanitizer set
          at a sink only carries names *)
  ix_reverts : unit H.t;
  ix_fn_sinks : sink_entry list H.t;
  ix_m_sinks : sink_entry list H.t;
  ix_passthrough : unit H.t;
  ix_concat : unit H.t;
  ix_db_writes : db_rw_entry Rw.t;
  ix_db_reads : db_rw_entry Rw.t;
}

let index t =
  let add_first tbl k v = if not (H.mem tbl k) then H.add tbl k v in
  let rw_add_first tbl k v = if not (Rw.mem tbl k) then Rw.add tbl k v in
  let ix =
    {
      ix_superglobals = H.create 16;
      ix_fn_sources = H.create 32;
      ix_m_sources = H.create 16;
      ix_fn_sanitizers = H.create 64;
      ix_m_sanitizers = H.create 16;
      ix_san_contexts = H.create 64;
      ix_reverts = H.create 16;
      ix_fn_sinks = H.create 64;
      ix_m_sinks = H.create 16;
      ix_passthrough = H.create 32;
      ix_concat = H.create 16;
      ix_db_writes = Rw.create 16;
      ix_db_reads = Rw.create 16;
    }
  in
  List.iter
    (fun (n, ks) -> add_first ix.ix_superglobals n ks)
    t.superglobal_sources;
  List.iter
    (fun e ->
      add_first
        (if e.src_is_method then ix.ix_m_sources else ix.ix_fn_sources)
        e.src_name e)
    t.function_sources;
  List.iter
    (fun e ->
      add_first
        (if e.san_is_method then ix.ix_m_sanitizers else ix.ix_fn_sanitizers)
        e.san_name e;
      add_first ix.ix_san_contexts e.san_name e.san_contexts)
    t.sanitizers;
  List.iter (fun n -> H.replace ix.ix_reverts n ()) t.reverts;
  (* walk the sinks backwards so each name's list comes out in spec order *)
  List.iter
    (fun e ->
      let tbl = if e.snk_is_method then ix.ix_m_sinks else ix.ix_fn_sinks in
      H.replace tbl e.snk_name
        (e :: Option.value ~default:[] (H.find_opt tbl e.snk_name)))
    (List.rev t.sinks);
  List.iter (fun n -> H.replace ix.ix_passthrough n ()) t.passthrough;
  List.iter (fun n -> H.replace ix.ix_concat n ()) t.concat_all_args;
  List.iter
    (fun e -> rw_add_first ix.ix_db_writes (e.rw_is_method, e.rw_name) e)
    t.db_writes;
  List.iter
    (fun e -> rw_add_first ix.ix_db_reads (e.rw_is_method, e.rw_name) e)
    t.db_reads;
  ix

let is_superglobal_source ix name = H.find_opt ix.ix_superglobals name
let find_function_source ix name = H.find_opt ix.ix_fn_sources name
let find_method_source ix name = H.find_opt ix.ix_m_sources name
let find_sanitizer ix name = H.find_opt ix.ix_fn_sanitizers name
let find_method_sanitizer ix name = H.find_opt ix.ix_m_sanitizers name
let is_revert ix name = H.mem ix.ix_reverts name

let find_sinks ix name =
  Option.value ~default:[] (H.find_opt ix.ix_fn_sinks name)

let find_method_sinks ix name =
  Option.value ~default:[] (H.find_opt ix.ix_m_sinks name)

let is_passthrough ix name = H.mem ix.ix_passthrough name
let is_concat_all ix name = H.mem ix.ix_concat name
let find_db_write ix ~is_method name = Rw.find_opt ix.ix_db_writes (is_method, name)
let find_db_read ix ~is_method name = Rw.find_opt ix.ix_db_reads (is_method, name)

(** Contexts sanitizer [name] is adequate for, searching function and
    method entries alike.  Unknown names are adequate nowhere. *)
let sanitizer_contexts ix name =
  Option.value ~default:[] (H.find_opt ix.ix_san_contexts name)

(** [adequate ix ~name ctx]: is sanitizer [name] adequate for output
    context [ctx]? *)
let adequate ix ~name ctx =
  List.exists (Context.equal ctx) (sanitizer_contexts ix name)

(* Which applied sanitizers each revert function undoes (context pass).
   Decoders undo exactly their encoding family; [base64_decode] (and any
   revert we have no model for) conservatively undoes everything. *)
let slash_escapers =
  [ "addslashes"; "mysql_escape_string"; "mysql_real_escape_string";
    "esc_sql"; "like_escape" ]

let html_escapers =
  [ "htmlspecialchars"; "htmlentities"; "esc_html"; "esc_attr";
    "esc_textarea"; "check_plain" ]

let url_encoders = [ "urlencode"; "rawurlencode"; "esc_url"; "check_url" ]

(** The set of applied sanitizers revert function [name] undoes. *)
let revert_undoes name =
  match name with
  | "stripslashes" | "stripcslashes" -> `Named slash_escapers
  | "html_entity_decode" | "htmlspecialchars_decode"
  | "wp_specialchars_decode" | "decode_entities" ->
      `Named html_escapers
  | "urldecode" | "rawurldecode" -> `Named url_encoders
  | _ -> `All

(** Merge an extension profile (e.g. WordPress) into a base configuration —
    "this ability can be easily extended to other CMSs, by adding their
    input, filtering and sink functions to the configuration files". *)
let extend base ext =
  {
    name = base.name ^ "+" ^ ext.name;
    superglobal_sources = base.superglobal_sources @ ext.superglobal_sources;
    function_sources = base.function_sources @ ext.function_sources;
    sanitizers = base.sanitizers @ ext.sanitizers;
    reverts = base.reverts @ ext.reverts;
    sinks = base.sinks @ ext.sinks;
    passthrough = base.passthrough @ ext.passthrough;
    concat_all_args = base.concat_all_args @ ext.concat_all_args;
    db_writes = base.db_writes @ ext.db_writes;
    db_reads = base.db_reads @ ext.db_reads;
  }
