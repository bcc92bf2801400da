(** Vulnerability taxonomy shared by all three analyzers and the evaluation
    harness. *)

(** The vulnerability classes the engine detects.  [Xss] and [Sqli] are the
    paper's original two (§I); the remaining four extend the same
    source/sink/sanitizer architecture to other injection families:
    command injection ([Cmdi]), path traversal / local file inclusion
    ([Path_traversal]), server-side request forgery ([Ssrf]) and
    second-order SQL injection through a database round-trip
    ([Second_order_sqli], detected by a two-phase persistent-taint pass). *)
type kind = Xss | Sqli | Cmdi | Path_traversal | Ssrf | Second_order_sqli

let all_kinds = [ Xss; Sqli; Cmdi; Path_traversal; Ssrf; Second_order_sqli ]

let kind_to_string = function
  | Xss -> "XSS"
  | Sqli -> "SQLi"
  | Cmdi -> "CMDi"
  | Path_traversal -> "LFI"
  | Ssrf -> "SSRF"
  | Second_order_sqli -> "SO-SQLi"

(* Lowercase spec/JSON name, e.g. "xss", "so-sqli" — the identifier used in
   config files, report-summary keys and --kind(s) command lines. *)
let kind_spec_name k = String.lowercase_ascii (kind_to_string k)

let kind_of_spec_name = function
  | "xss" -> Some Xss
  | "sqli" -> Some Sqli
  | "cmdi" -> Some Cmdi
  | "lfi" | "path-traversal" -> Some Path_traversal
  | "ssrf" -> Some Ssrf
  | "so-sqli" | "second-order-sqli" -> Some Second_order_sqli
  | _ -> None

let pp_kind ppf k = Format.pp_print_string ppf (kind_to_string k)
let equal_kind (a : kind) b = a = b
let compare_kind (a : kind) b = compare a b

(** Malicious input-vector classes of Table II, ordered as in the paper.
    They grade how easily an attacker controls the source (§V.C):
    direct manipulation (POST/GET/COOKIE), indirect via the database, or
    hard-to-reach OS files / framework functions / arrays. *)
type vector =
  | Post
  | Get
  | Post_get_cookie
  | Db
  | File_function_array

let all_vectors = [ Post; Get; Post_get_cookie; Db; File_function_array ]

let vector_to_string = function
  | Post -> "POST"
  | Get -> "GET"
  | Post_get_cookie -> "POST/GET/COOKIE"
  | Db -> "DB"
  | File_function_array -> "File/Function/Array"


(** Directly-manipulable vectors — the "very easy to exploit" class used by
    the §V.D inertia analysis (GET, POST or COOKIE manipulation). *)
let vector_is_direct = function
  | Post | Get | Post_get_cookie -> true
  | Db | File_function_array -> false

(** Where tainted data enters the plugin. *)
type source =
  | Superglobal of string       (** e.g. ["$_GET"], ["$_POST"] *)
  | Database of string          (** producing function/method, e.g. ["$wpdb->get_results"] *)
  | File_read of string         (** e.g. ["fgets"], ["file_get_contents"] *)
  | Function_return of string   (** framework function returning untrusted data *)
  | Uninitialized of string     (** register_globals-style uninitialized variable *)
  | Unknown_source

let source_to_string = function
  | Superglobal s -> s
  | Database f -> f ^ " [db]"
  | File_read f -> f ^ " [file]"
  | Function_return f -> f ^ " [fn]"
  | Uninitialized v -> v ^ " [uninit]"
  | Unknown_source -> "<unknown>"

(** The Table II class a given source falls into.  [Post_get_cookie] is used
    for sources reachable through more than one direct vector
    ([$_REQUEST], [$_COOKIE]). *)
let vector_of_source = function
  | Superglobal "$_POST" -> Post
  | Superglobal "$_GET" -> Get
  | Superglobal _ -> Post_get_cookie
  | Uninitialized _ -> Post_get_cookie
  | Database _ -> Db
  | File_read _ | Function_return _ | Unknown_source -> File_function_array
