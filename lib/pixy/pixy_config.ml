(** Pixy knowledge base — frozen in 2007 (paper §II, §V.A: "Pixy has not
    been updated since 2007", "half of the vulnerabilities it found were due
    to [the register_globals] directive").

    It knows the PHP 4-era builtins: classic superglobals, the standard
    sanitizers, and the [mysql_*] family.  It has no revert modelling, no
    WordPress knowledge, and — crucially — no OOP support at all.

    Pixy's taxonomy stops at XSS and SQLi, and these tables alone express
    it: no source, sink or sanitizer here names another kind, so every
    newer kind stays permanently clean (the paper-fidelity gap the E16
    evaluation measures). *)

open Secflow

let builtin : string -> Baseline.role option = function
  | "file_get_contents" | "fgets" | "fread" | "file" ->
      Some (Source ([ Vuln.Xss; Vuln.Sqli ], Vuln.File_read "file read"))
  | "mysql_fetch_assoc" | "mysql_fetch_array" | "mysql_fetch_row"
  | "mysql_result" | "mysql_query" ->
      Some (Source ([ Vuln.Xss ], Vuln.Database "mysql"))
  | "htmlspecialchars" | "htmlentities" | "strip_tags" | "urlencode" ->
      Some (Sanitizer [ Vuln.Xss ])
  | "intval" | "floatval" | "abs" | "count" | "strlen" | "md5" | "sha1" ->
      Some (Sanitizer [ Vuln.Xss; Vuln.Sqli ])
  | "addslashes" | "mysql_escape_string" | "mysql_real_escape_string" ->
      Some (Sanitizer [ Vuln.Sqli ])
  (* 2007-era Pixy does not model reverts: stripslashes just passes through *)
  | "stripslashes" | "stripcslashes" | "trim" | "ltrim" | "rtrim" | "substr"
  | "strtolower" | "strtoupper" | "ucfirst" | "nl2br" | "strval" ->
      Some Passthrough
  | "sprintf" | "implode" | "join" | "str_replace" -> Some Join_args
  | _ -> None

let superglobals = [ "$_GET"; "$_POST"; "$_COOKIE"; "$_REQUEST"; "$_SERVER" ]
let is_superglobal v = List.mem v superglobals

(** Superglobals and register_globals seeds carry both kinds. *)
let input_kinds = [ Vuln.Xss; Vuln.Sqli ]

(** Sink functions; [echo], [print] and [exit] are handled by the analyzer. *)
let sinks : Baseline.sink list =
  [ ("printf", Vuln.Xss, `All); ("print_r", Vuln.Xss, `All);
    ("mysql_query", Vuln.Sqli, `First); ("mysql_db_query", Vuln.Sqli, `First) ]

(** register_globals = 1: an uninitialized variable can be seeded from the
    request, through GET, POST or COOKIE — hence the mixed vector. *)
let uninitialized_source v = Vuln.Uninitialized v
