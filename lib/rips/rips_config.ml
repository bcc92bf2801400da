(** RIPS knowledge base.

    RIPS performs "a comprehensive analysis and simulation of built-in
    language features, such as PHP functions" (paper §II) — it knows the PHP
    built-in sources, sanitizers, reverts and sinks very well, but it has no
    CMS-framework profile: WordPress API functions and [$wpdb] methods are
    unknown to it, and it "does not parse PHP objects". *)

open Secflow

(** The vulnerability classes RIPS 0.55 reports on request input: XSS, SQLi,
    command execution and file inclusion/disclosure (paper §II).  No SSRF —
    the class post-dates the tool — and no second-order flows: RIPS has no
    model of data coming back out of storage. *)
let input_kinds = [ Vuln.Xss; Vuln.Sqli; Vuln.Cmdi; Vuln.Path_traversal ]

let builtin name : Baseline.role option =
  match name with
  (* input functions *)
  | "file_get_contents" -> Some (Source ([ Vuln.Xss; Vuln.Sqli ], Vuln.File_read name))
  | "fgets" | "fread" | "file" | "fscanf" ->
      Some (Source ([ Vuln.Xss; Vuln.Sqli ], Vuln.File_read name))
  | "getenv" -> Some (Source ([ Vuln.Xss; Vuln.Sqli ], Vuln.Function_return name))
  | "mysql_fetch_assoc" | "mysql_fetch_array" | "mysql_fetch_row"
  | "mysql_fetch_object" | "mysql_result" | "mysql_query" ->
      Some (Source ([ Vuln.Xss ], Vuln.Database name))
  (* securing functions *)
  | "htmlspecialchars" | "htmlentities" | "strip_tags" | "urlencode"
  | "rawurlencode" | "json_encode" ->
      Some (Sanitizer [ Vuln.Xss ])
  | "intval" | "floatval" | "abs" | "count" | "strlen" | "md5" | "sha1"
  | "crc32" | "number_format" ->
      (* numeric results are harmless in every class RIPS knows *)
      Some (Sanitizer input_kinds)
  | "addslashes" | "mysql_escape_string" | "mysql_real_escape_string" ->
      Some (Sanitizer [ Vuln.Sqli ])
  | "escapeshellarg" | "escapeshellcmd" -> Some (Sanitizer [ Vuln.Cmdi ])
  | "basename" | "realpath" -> Some (Sanitizer [ Vuln.Path_traversal ])
  (* reverting functions *)
  | "stripslashes" | "stripcslashes" | "urldecode" | "rawurldecode"
  | "html_entity_decode" | "htmlspecialchars_decode" | "base64_decode" ->
      Some Revert
  (* taint-preserving string builtins *)
  | "trim" | "ltrim" | "rtrim" | "substr" | "strtolower" | "strtoupper"
  | "ucfirst" | "ucwords" | "nl2br" | "strval" | "strrev" | "wordwrap" ->
      Some Passthrough
  | "sprintf" | "vsprintf" | "implode" | "join" | "str_replace"
  | "preg_replace" | "str_pad" ->
      Some Join_args
  | _ -> None

let superglobals =
  [ "$_GET"; "$_POST"; "$_COOKIE"; "$_REQUEST"; "$_FILES"; "$_SERVER" ]

let is_superglobal v = List.mem v superglobals

(** Sink functions.  Language constructs ([echo], [print], [exit],
    [include]) are handled by the analyzer.  Every argument of an XSS sink
    is output; the others take the query, the command (RIPS 0.55's "code
    execution" class) or the path (its file inclusion / disclosure class)
    first. *)
let sinks : Baseline.sink list =
  List.map (fun n -> (n, Vuln.Xss, `All)) [ "printf"; "print_r"; "vprintf" ]
  @ List.map
      (fun n -> (n, Vuln.Sqli, `First))
      [ "mysql_query"; "mysql_db_query"; "mysql_unbuffered_query" ]
  @ List.map
      (fun n -> (n, Vuln.Cmdi, `First))
      [ "system"; "exec"; "shell_exec"; "passthru"; "popen"; "proc_open" ]
  @ List.map
      (fun n -> (n, Vuln.Path_traversal, `First))
      [ "fopen"; "readfile"; "file_get_contents" ]
