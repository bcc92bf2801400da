(** Configuration stage tests (§III.A): lookups in the generic PHP profile,
    the WordPress extension and profile merging. *)

open Secflow
module C = Phpsafe.Config

let generic = C.generic_php
let wp = Phpsafe.Wordpress.default_config

let case name f = Alcotest.test_case name `Quick f

let generic_cases =
  [
    case "superglobals source every first-order kind" (fun () ->
        match C.is_superglobal_source (C.index generic) "$_GET" with
        | Some kinds ->
            (* every kind except second-order SQLi, whose only source is a
               replayed database read *)
            Alcotest.(check int) "first-order kinds" 5 (List.length kinds);
            Alcotest.(check bool) "not so-sqli" false
              (List.exists (Vuln.equal_kind Vuln.Second_order_sqli) kinds)
        | None -> Alcotest.fail "$_GET missing");
    case "$_SERVER is a source" (fun () ->
        Alcotest.(check bool) "present" true
          (C.is_superglobal_source (C.index generic) "$_SERVER" <> None));
    case "$wpdb is not a superglobal" (fun () ->
        Alcotest.(check bool) "absent" true
          (C.is_superglobal_source (C.index generic) "$wpdb" = None));
    case "file functions are sources" (fun () ->
        Alcotest.(check bool) "fgets" true
          (C.find_function_source (C.index generic) "fgets" <> None);
        Alcotest.(check bool) "file_get_contents" true
          (C.find_function_source (C.index generic) "file_get_contents" <> None));
    case "htmlspecialchars sanitizes XSS only" (fun () ->
        match C.find_sanitizer (C.index generic) "htmlspecialchars" with
        | Some s ->
            Alcotest.(check bool) "xss" true (List.mem Vuln.Xss s.C.san_kinds);
            Alcotest.(check bool) "not sqli" false
              (List.mem Vuln.Sqli s.C.san_kinds)
        | None -> Alcotest.fail "missing sanitizer");
    case "intval sanitizes every kind" (fun () ->
        match C.find_sanitizer (C.index generic) "intval" with
        | Some s ->
            Alcotest.(check int) "kinds" (List.length Vuln.all_kinds)
              (List.length s.C.san_kinds)
        | None -> Alcotest.fail "missing");
    case "stripslashes is a revert" (fun () ->
        Alcotest.(check bool) "revert" true (C.is_revert (C.index generic) "stripslashes"));
    case "echo is an XSS sink" (fun () ->
        match C.find_sinks (C.index generic) "echo" with
        | [ s ] -> Alcotest.(check bool) "xss" true (s.C.snk_kind = Vuln.Xss)
        | _ -> Alcotest.fail "echo sink missing");
    case "mysql_query is both sink and source" (fun () ->
        Alcotest.(check bool) "sink" true (C.find_sinks (C.index generic) "mysql_query" <> []);
        Alcotest.(check bool) "source" true
          (C.find_function_source (C.index generic) "mysql_query" <> None));
    case "trim is passthrough, sprintf joins args" (fun () ->
        Alcotest.(check bool) "trim" true (C.is_passthrough (C.index generic) "trim");
        Alcotest.(check bool) "sprintf" true (C.is_concat_all (C.index generic) "sprintf"));
  ]

let wordpress_cases =
  [
    case "esc_html known only to the WP profile" (fun () ->
        Alcotest.(check bool) "generic lacks it" true
          (C.find_sanitizer (C.index generic) "esc_html" = None);
        Alcotest.(check bool) "wp has it" true
          (C.find_sanitizer (C.index wp) "esc_html" <> None));
    case "get_results is a method source in WP profile" (fun () ->
        Alcotest.(check bool) "method source" true
          (C.find_method_source (C.index wp) "get_results" <> None);
        Alcotest.(check bool) "not a plain function source" true
          (C.find_function_source (C.index wp) "get_results" = None));
    case "query method is a SQLi sink" (fun () ->
        match C.find_method_sinks (C.index wp) "query" with
        | [ s ] -> Alcotest.(check bool) "sqli" true (s.C.snk_kind = Vuln.Sqli)
        | _ -> Alcotest.fail "method sink missing");
    case "prepare is a method sanitizer for SQLi" (fun () ->
        match C.find_method_sanitizer (C.index wp) "prepare" with
        | Some s ->
            Alcotest.(check bool) "sqli" true (List.mem Vuln.Sqli s.C.san_kinds)
        | None -> Alcotest.fail "missing");
    case "extend merges every section" (fun () ->
        let merged = C.extend generic Phpsafe.Wordpress.profile in
        Alcotest.(check bool) "generic sink kept" true
          (C.find_sinks (C.index merged) "echo" <> []);
        Alcotest.(check bool) "wp sanitizer added" true
          (C.find_sanitizer (C.index merged) "esc_attr" <> None);
        Alcotest.(check bool) "name composed" true
          (String.length merged.C.name
           > String.length generic.C.name));
    case "default config is generic + wordpress" (fun () ->
        Alcotest.(check bool) "has generic" true
          (C.find_sanitizer (C.index wp) "htmlspecialchars" <> None);
        Alcotest.(check bool) "has wp" true (C.find_sanitizer (C.index wp) "absint" <> None));
  ]

(* -- textual configuration format (§III.A config files) -------------- *)

let sample_spec =
  {spec|# test profile
profile my-cms
source superglobal $_GET xss,sqli
source function fetch_feed fn xss
source method load_rows db xss
sanitizer function clean_html xss
sanitizer method bind sqli
revert undo_escape
sink function render_raw xss
sink method run_sql sqli
passthrough decorate
concat combine
|spec}

let spec_cases =
  [
    case "spec parses every directive" (fun () ->
        let c = Phpsafe.Config_spec.of_string sample_spec in
        Alcotest.(check string) "name" "my-cms" c.C.name;
        Alcotest.(check bool) "superglobal" true
          (C.is_superglobal_source (C.index c) "$_GET" <> None);
        Alcotest.(check bool) "fn source" true
          (C.find_function_source (C.index c) "fetch_feed" <> None);
        Alcotest.(check bool) "method source" true
          (C.find_method_source (C.index c) "load_rows" <> None);
        Alcotest.(check bool) "sanitizer" true (C.find_sanitizer (C.index c) "clean_html" <> None);
        Alcotest.(check bool) "method sanitizer" true
          (C.find_method_sanitizer (C.index c) "bind" <> None);
        Alcotest.(check bool) "revert" true (C.is_revert (C.index c) "undo_escape");
        Alcotest.(check bool) "sink" true (C.find_sinks (C.index c) "render_raw" <> []);
        Alcotest.(check bool) "method sink" true (C.find_method_sinks (C.index c) "run_sql" <> []);
        Alcotest.(check bool) "passthrough" true (C.is_passthrough (C.index c) "decorate");
        Alcotest.(check bool) "concat" true (C.is_concat_all (C.index c) "combine"));
    case "spec round-trips through to_string" (fun () ->
        let c = Phpsafe.Config_spec.of_string sample_spec in
        let again = Phpsafe.Config_spec.of_string (Phpsafe.Config_spec.to_string c) in
        Alcotest.(check string) "name" c.C.name again.C.name;
        Alcotest.(check int) "sources" (List.length c.C.function_sources)
          (List.length again.C.function_sources);
        Alcotest.(check int) "sinks" (List.length c.C.sinks)
          (List.length again.C.sinks);
        Alcotest.(check bool) "same lookups" true
          (C.is_revert (C.index again) "undo_escape" && C.is_passthrough (C.index again) "decorate"));
    case "builtin profiles survive the spec round trip" (fun () ->
        List.iter
          (fun profile ->
            let again =
              Phpsafe.Config_spec.of_string (Phpsafe.Config_spec.to_string profile)
            in
            Alcotest.(check int) (profile.C.name ^ " sanitizers")
              (List.length profile.C.sanitizers)
              (List.length again.C.sanitizers);
            Alcotest.(check int) (profile.C.name ^ " sinks")
              (List.length profile.C.sinks)
              (List.length again.C.sinks);
            Alcotest.(check int) (profile.C.name ^ " sources")
              (List.length profile.C.function_sources)
              (List.length again.C.function_sources))
          [ C.generic_php; Phpsafe.Wordpress.default_config;
            Phpsafe.Joomla.default_config; Phpsafe.Drupal.default_config ]);
    case "a spec-loaded profile drives the analyzer" (fun () ->
        let c =
          Phpsafe.Config_spec.of_string
            "source superglobal $_GET xss\nsink function show xss\n"
        in
        let opts = { Phpsafe.default_options with Phpsafe.config = c } in
        let r =
          Phpsafe.analyze_source ~opts ~file:"t.php" "<?php show($_GET['x']);"
        in
        Alcotest.(check int) "custom sink fires" 1
          (List.length r.Secflow.Report.findings));
    case "errors carry the line number" (fun () ->
        (try
           ignore (Phpsafe.Config_spec.of_string "profile x\nbogus directive\n");
           Alcotest.fail "expected Spec_error"
         with Phpsafe.Config_spec.Spec_error (_, line) ->
           Alcotest.(check int) "line" 2 line);
        try
          ignore (Phpsafe.Config_spec.of_string "source superglobal $_GET magic\n");
          Alcotest.fail "expected Spec_error"
        with Phpsafe.Config_spec.Spec_error (msg, _) ->
          Alcotest.(check bool) "mentions the kind" true
            (String.length msg > 0));
    case "comments and blank lines are ignored" (fun () ->
        let c =
          Phpsafe.Config_spec.of_string
            "# header\n\n  \nrevert undo # trailing comment\n"
        in
        Alcotest.(check bool) "revert parsed" true (C.is_revert (C.index c) "undo"));
    case "new-class directives parse and round-trip" (fun () ->
        let spec =
          "sink function curl_setopt ssrf when=1:CURLOPT_URL\n\
           sink function file_get_contents ssrf shape=url\n\
           sink function file_get_contents lfi shape=nonurl\n\
           sink function system cmdi\n\
           sink method query so-sqli\n\
           dbwrite function update_option key=0 vals=1\n\
           dbwrite method insert key=0\n\
           dbread method get_results\n\
           dbread function get_option key=0\n"
        in
        let c = Phpsafe.Config_spec.of_string spec in
        (match C.find_sinks (C.index c) "curl_setopt" with
        | [ s ] ->
            Alcotest.(check bool) "ssrf kind" true (s.C.snk_kind = Vuln.Ssrf);
            Alcotest.(check bool) "when= kept" true
              (s.C.snk_when_const = Some (1, "CURLOPT_URL"))
        | _ -> Alcotest.fail "curl_setopt sink missing");
        let fgc = C.find_sinks (C.index c) "file_get_contents" in
        Alcotest.(check int) "two shape-split sinks" 2 (List.length fgc);
        Alcotest.(check bool) "ssrf reads the url shape" true
          (List.exists
             (fun s ->
               s.C.snk_kind = Vuln.Ssrf && s.C.snk_path_shape = `Url_prefix)
             fgc);
        Alcotest.(check bool) "lfi reads the non-url shape" true
          (List.exists
             (fun s ->
               s.C.snk_kind = Vuln.Path_traversal
               && s.C.snk_path_shape = `Non_url)
             fgc);
        (match C.find_sinks (C.index c) "system" with
        | [ s ] ->
            Alcotest.(check bool) "cmdi kind" true (s.C.snk_kind = Vuln.Cmdi);
            Alcotest.(check bool) "no shape" true (s.C.snk_path_shape = `Any)
        | _ -> Alcotest.fail "system sink missing");
        (match C.find_method_sinks (C.index c) "query" with
        | [ s ] ->
            Alcotest.(check bool) "so-sqli kind" true
              (s.C.snk_kind = Vuln.Second_order_sqli)
        | _ -> Alcotest.fail "query method sink missing");
        (match C.find_db_write (C.index c) ~is_method:false "update_option" with
        | Some e ->
            Alcotest.(check int) "write key" 0 e.C.rw_key_arg;
            Alcotest.(check bool) "write vals" true (e.C.rw_val_args = Some [ 1 ])
        | None -> Alcotest.fail "update_option dbwrite missing");
        (match C.find_db_write (C.index c) ~is_method:true "insert" with
        | Some e ->
            Alcotest.(check int) "method write key" 0 e.C.rw_key_arg;
            Alcotest.(check bool) "default vals" true (e.C.rw_val_args = None)
        | None -> Alcotest.fail "insert dbwrite missing");
        (match C.find_db_read (C.index c) ~is_method:true "get_results" with
        | Some e ->
            Alcotest.(check bool) "wildcard key" true (e.C.rw_key_arg < 0)
        | None -> Alcotest.fail "get_results dbread missing");
        (match C.find_db_read (C.index c) ~is_method:false "get_option" with
        | Some e -> Alcotest.(check int) "read key" 0 e.C.rw_key_arg
        | None -> Alcotest.fail "get_option dbread missing");
        (* to_string is a fixpoint over the new directives too *)
        let printed = Phpsafe.Config_spec.to_string c in
        Alcotest.(check string) "fixpoint" printed
          (Phpsafe.Config_spec.to_string (Phpsafe.Config_spec.of_string printed)));
    case "unknown kinds warn in the lenient parser, raise in the strict one"
      (fun () ->
        let spec = "sanitizer function scrub xss,xxe\nrevert undo\n" in
        let c, warnings = Phpsafe.Config_spec.of_string_with_warnings spec in
        (match warnings with
        | [ w ] ->
            Alcotest.(check bool) "names the line" true
              (String.length w >= 6 && String.sub w 0 6 = "line 1");
            Alcotest.(check bool) "names the kind" true
              (String.length w > 0
              && List.exists
                   (fun i -> i + 5 <= String.length w && String.sub w i 5 = "\"xxe\"")
                   (List.init (String.length w - 4) Fun.id))
        | ws ->
            Alcotest.fail
              (Printf.sprintf "expected one warning, got %d" (List.length ws)));
        (match C.find_sanitizer (C.index c) "scrub" with
        | Some s ->
            Alcotest.(check bool) "known kind kept" true
              (s.C.san_kinds = [ Vuln.Xss ])
        | None -> Alcotest.fail "scrub should survive minus the unknown kind");
        Alcotest.(check bool) "rest of the spec loads" true (C.is_revert (C.index c) "undo");
        (* an entry whose whole kind list is unknown is skipped entirely *)
        let c2, w2 =
          Phpsafe.Config_spec.of_string_with_warnings
            "sink function emit xxe\nrevert undo\n"
        in
        Alcotest.(check int) "one warning" 1 (List.length w2);
        Alcotest.(check bool) "sink dropped" true (C.find_sinks (C.index c2) "emit" = []);
        Alcotest.(check bool) "later lines unaffected" true (C.is_revert (C.index c2) "undo");
        (* the strict entry point still refuses the same input *)
        try
          ignore (Phpsafe.Config_spec.of_string spec);
          Alcotest.fail "expected Spec_error"
        with Phpsafe.Config_spec.Spec_error (msg, line) ->
          Alcotest.(check int) "line" 1 line;
          Alcotest.(check bool) "mentions xxe" true
            (let nl = String.length "xxe" and hl = String.length msg in
             let rec go i =
               i + nl <= hl && (String.sub msg i nl = "xxe" || go (i + 1))
             in
             go 0));
  ]

(* -- sanitizer contexts and validation ------------------------------- *)

let context_cases =
  let open Secflow.Context in
  [
    case "htmlspecialchars adequate for body and quoted attribute only"
      (fun () ->
        let ad ctx = C.adequate (C.index wp) ~name:"htmlspecialchars" ctx in
        Alcotest.(check bool) "body" true (ad Html_body);
        Alcotest.(check bool) "quoted attr" true (ad Html_attr_quoted);
        Alcotest.(check bool) "unquoted attr" false (ad Html_attr_unquoted);
        Alcotest.(check bool) "js string" false (ad Js_string);
        Alcotest.(check bool) "url" false (ad Url));
    case "intval adequate in every context" (fun () ->
        List.iter
          (fun ctx ->
            Alcotest.(check bool) (to_string ctx) true
              (C.adequate (C.index wp) ~name:"intval" ctx))
          all);
    case "addslashes adequate only in a quoted SQL string" (fun () ->
        Alcotest.(check bool) "quoted" true
          (C.adequate (C.index wp) ~name:"addslashes" Sql_quoted_string);
        Alcotest.(check bool) "numeric" false
          (C.adequate (C.index wp) ~name:"addslashes" Sql_numeric);
        Alcotest.(check bool) "identifier" false
          (C.adequate (C.index wp) ~name:"addslashes" Sql_identifier));
    case "unknown sanitizer is adequate nowhere" (fun () ->
        Alcotest.(check bool) "no contexts" true
          (C.sanitizer_contexts (C.index wp) "no_such_fn" = []));
    case "spec ctx= clause parses and round-trips" (fun () ->
        let c =
          Phpsafe.Config_spec.of_string
            "sanitizer function esc_text xss ctx=html-body,html-attr-quoted\n"
        in
        Alcotest.(check bool) "restricted" true
          (C.adequate (C.index c) ~name:"esc_text" Html_body
          && not (C.adequate (C.index c) ~name:"esc_text" Html_attr_unquoted));
        let again = Phpsafe.Config_spec.of_string (Phpsafe.Config_spec.to_string c) in
        Alcotest.(check bool) "round-trip keeps the restriction" true
          (C.adequate (C.index again) ~name:"esc_text" Html_body
          && not (C.adequate (C.index again) ~name:"esc_text" Html_attr_unquoted)));
    case "spec rejects an unknown context name" (fun () ->
        try
          ignore
            (Phpsafe.Config_spec.of_string
               "sanitizer function f xss ctx=html-wat\n");
          Alcotest.fail "expected Spec_error"
        with Phpsafe.Config_spec.Spec_error (_, line) ->
          Alcotest.(check int) "line" 1 line);
    case "builtin context matrix survives the spec round trip" (fun () ->
        List.iter
          (fun profile ->
            let again =
              Phpsafe.Config_spec.of_string (Phpsafe.Config_spec.to_string profile)
            in
            List.iter
              (fun (s : C.sanitizer_entry) ->
                Alcotest.(check (list string))
                  (profile.C.name ^ "/" ^ s.C.san_name)
                  (List.sort String.compare (List.map to_string s.C.san_contexts))
                  (List.sort String.compare
                     (List.map to_string
                        (C.sanitizer_contexts (C.index again) s.C.san_name))))
              (List.filter (fun (s : C.sanitizer_entry) -> not s.C.san_is_method)
                 profile.C.sanitizers))
          [ C.generic_php; Phpsafe.Wordpress.default_config;
            Phpsafe.Joomla.default_config; Phpsafe.Drupal.default_config ]);
  ]

let contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* an extension that repeats base names in every first-entry-wins role *)
let repeating_ext =
  Phpsafe.Config_spec.of_string
    "profile repeat\n\
     source superglobal $_GET xss\n\
     source function getenv fn sqli\n\
     source method get_results db sqli\n\
     sanitizer function strip_tags xss,sqli\n\
     sanitizer method prepare xss\n\
     revert stripslashes\n\
     sink function echo sqli\n\
     passthrough trim\n\
     concat sprintf\n\
     dbwrite function update_option key=1\n\
     dbread method get_results key=0\n"

let validate_cases =
  [
    case "builtin profiles validate cleanly" (fun () ->
        List.iter
          (fun profile ->
            Alcotest.(check (list string)) profile.C.name []
              (Phpsafe.Config_spec.validate profile))
          [ C.generic_php; Phpsafe.Wordpress.default_config;
            Phpsafe.Joomla.default_config; Phpsafe.Drupal.default_config ]);
    case "shipped extensions shadow nothing in generic-php" (fun () ->
        Alcotest.(check (list string)) "generic-php" []
          (Phpsafe.Config_spec.validate C.generic_php);
        List.iter
          (fun (ext : C.t) ->
            Alcotest.(check (list string)) ext.C.name []
              (Phpsafe.Config_spec.validate ~base:C.generic_php ext))
          [ Phpsafe.Wordpress.profile; Phpsafe.Joomla.profile;
            Phpsafe.Drupal.profile ]);
    case "an extension entry reusing a base name is reported as shadowed"
      (fun () ->
        let ws = Phpsafe.Config_spec.validate ~base:C.generic_php repeating_ext in
        List.iter
          (fun entry ->
            Alcotest.(check bool) entry true
              (List.exists
                 (fun w -> contains w (entry ^ " is shadowed by generic-php"))
                 ws))
          [ "source superglobal $_GET"; "source function getenv";
            "sanitizer function strip_tags" ];
        (* sinks accumulate and the set-like roles carry no data: neither
           is shadowed; nor is a name only the WordPress layer knows *)
        Alcotest.(check int) "three shadowed entries" 3 (List.length ws);
        let ws =
          Phpsafe.Config_spec.validate ~base:Phpsafe.Wordpress.default_config
            repeating_ext
        in
        List.iter
          (fun entry ->
            Alcotest.(check bool) entry true
              (List.exists (fun w -> contains w (entry ^ " is shadowed")) ws))
          [ "source method get_results"; "sanitizer method prepare";
            "dbwrite function update_option"; "dbread method get_results" ];
        Alcotest.(check int) "seven over the WordPress default" 7
          (List.length ws));
    case "duplicate sanitizer entries are reported" (fun () ->
        let c =
          Phpsafe.Config_spec.of_string
            "sanitizer function clean xss\nsanitizer function clean xss\n"
        in
        match Phpsafe.Config_spec.validate c with
        | [ w ] ->
            Alcotest.(check bool) "names the entry" true
              (String.length w > 0
              && contains w "clean")
        | ws -> Alcotest.failf "expected 1 warning, got %d" (List.length ws));
    case "duplicate sinks and sources are reported" (fun () ->
        let c =
          Phpsafe.Config_spec.of_string
            "sink function show xss\nsink function show xss\n\
             source superglobal $_GET xss\nsource superglobal $_GET sqli\n"
        in
        Alcotest.(check int) "two warnings" 2
          (List.length (Phpsafe.Config_spec.validate c)));
    case "source-and-sanitizer conflicts are reported" (fun () ->
        let c =
          Phpsafe.Config_spec.of_string
            "source function fetch fn xss\nsanitizer function fetch xss\n"
        in
        Alcotest.(check bool) "conflict reported" true
          (List.exists
             (fun w -> contains w "both a source and a sanitizer")
             (Phpsafe.Config_spec.validate c)));
    case "same name for different kinds is not a conflict" (fun () ->
        let c =
          Phpsafe.Config_spec.of_string
            "source function fetch fn xss\nsanitizer function fetch sqli\n"
        in
        Alcotest.(check (list string)) "clean" []
          (Phpsafe.Config_spec.validate c));
  ]

(* -- the per-run index against the spec-ordered lists ------------------ *)

(* The list scans the analyzer used before the index, kept as the oracle
   the index must reproduce answer for answer. *)
module Oracle = struct
  let is_superglobal_source (t : C.t) name =
    List.assoc_opt name t.C.superglobal_sources

  let find_function_source (t : C.t) name =
    List.find_opt
      (fun (e : C.source_entry) ->
        (not e.C.src_is_method) && String.equal e.C.src_name name)
      t.C.function_sources

  let find_method_source (t : C.t) name =
    List.find_opt
      (fun (e : C.source_entry) ->
        e.C.src_is_method && String.equal e.C.src_name name)
      t.C.function_sources

  let find_sanitizer (t : C.t) name =
    List.find_opt
      (fun (e : C.sanitizer_entry) ->
        (not e.C.san_is_method) && String.equal e.C.san_name name)
      t.C.sanitizers

  let find_method_sanitizer (t : C.t) name =
    List.find_opt
      (fun (e : C.sanitizer_entry) ->
        e.C.san_is_method && String.equal e.C.san_name name)
      t.C.sanitizers

  let is_revert (t : C.t) name = List.exists (String.equal name) t.C.reverts

  let find_sinks (t : C.t) name =
    List.filter
      (fun (e : C.sink_entry) ->
        (not e.C.snk_is_method) && String.equal e.C.snk_name name)
      t.C.sinks

  let find_method_sinks (t : C.t) name =
    List.filter
      (fun (e : C.sink_entry) ->
        e.C.snk_is_method && String.equal e.C.snk_name name)
      t.C.sinks

  let is_passthrough (t : C.t) name =
    List.exists (String.equal name) t.C.passthrough

  let is_concat_all (t : C.t) name =
    List.exists (String.equal name) t.C.concat_all_args

  let find_rw entries ~is_method name =
    List.find_opt
      (fun (e : C.db_rw_entry) ->
        e.C.rw_is_method = is_method && String.equal e.C.rw_name name)
      entries

  let sanitizer_contexts (t : C.t) name =
    match
      List.find_opt
        (fun (e : C.sanitizer_entry) -> String.equal e.C.san_name name)
        t.C.sanitizers
    with
    | Some e -> e.C.san_contexts
    | None -> []
end

let shipped =
  [ C.generic_php; Phpsafe.Wordpress.default_config;
    Phpsafe.Joomla.default_config; Phpsafe.Drupal.default_config ]

(* every name any shipped profile mentions, in any role, plus a few that
   none does (wrong case, a superglobal without its sigil, the empty
   string) *)
let all_names =
  List.concat_map
    (fun (t : C.t) ->
      List.map fst t.C.superglobal_sources
      @ List.map (fun (e : C.source_entry) -> e.C.src_name) t.C.function_sources
      @ List.map (fun (e : C.sanitizer_entry) -> e.C.san_name) t.C.sanitizers
      @ t.C.reverts
      @ List.map (fun (e : C.sink_entry) -> e.C.snk_name) t.C.sinks
      @ t.C.passthrough @ t.C.concat_all_args
      @ List.map (fun (e : C.db_rw_entry) -> e.C.rw_name)
          (t.C.db_writes @ t.C.db_reads))
    shipped
  @ [ ""; "no_such_fn"; "ECHO"; "Htmlspecialchars"; "_GET"; "$_get";
      "get_results "; "$wpdb" ]
  |> List.sort_uniq String.compare

(* same entries, physically: "first entry wins" means the very record the
   list scan would have found *)
let same_opt a b = Option.equal ( == ) a b
let same_list a b = List.equal ( == ) a b

let check_index_matches_oracle (t : C.t) =
  let ix = C.index t in
  List.iter
    (fun n ->
      let agree what ok =
        if not ok then Alcotest.failf "%s: %s %S differs from the list scan"
            t.C.name what n
      in
      agree "superglobal"
        (C.is_superglobal_source ix n = Oracle.is_superglobal_source t n);
      agree "function source"
        (same_opt (C.find_function_source ix n) (Oracle.find_function_source t n));
      agree "method source"
        (same_opt (C.find_method_source ix n) (Oracle.find_method_source t n));
      agree "sanitizer"
        (same_opt (C.find_sanitizer ix n) (Oracle.find_sanitizer t n));
      agree "method sanitizer"
        (same_opt (C.find_method_sanitizer ix n)
           (Oracle.find_method_sanitizer t n));
      agree "sanitizer contexts"
        (C.sanitizer_contexts ix n == Oracle.sanitizer_contexts t n);
      List.iter
        (fun ctx ->
          agree "adequate"
            (C.adequate ix ~name:n ctx
            = List.exists (Context.equal ctx) (Oracle.sanitizer_contexts t n)))
        Context.all;
      agree "revert" (C.is_revert ix n = Oracle.is_revert t n);
      agree "sinks" (same_list (C.find_sinks ix n) (Oracle.find_sinks t n));
      agree "method sinks"
        (same_list (C.find_method_sinks ix n) (Oracle.find_method_sinks t n));
      agree "passthrough" (C.is_passthrough ix n = Oracle.is_passthrough t n);
      agree "concat" (C.is_concat_all ix n = Oracle.is_concat_all t n);
      List.iter
        (fun is_method ->
          agree "dbwrite"
            (same_opt (C.find_db_write ix ~is_method n)
               (Oracle.find_rw t.C.db_writes ~is_method n));
          agree "dbread"
            (same_opt (C.find_db_read ix ~is_method n)
               (Oracle.find_rw t.C.db_reads ~is_method n)))
        [ false; true ])
    all_names

let index_cases =
  [
    case "the index answers as the list scan on every shipped profile"
      (fun () -> List.iter check_index_matches_oracle shipped);
    case "... and on every shipped profile after a spec round trip" (fun () ->
        List.iter
          (fun profile ->
            check_index_matches_oracle
              (Phpsafe.Config_spec.of_string
                 (Phpsafe.Config_spec.to_string profile)))
          shipped);
    case "... and on an extension repeating base names (first entry wins)"
      (fun () ->
        let merged = C.extend Phpsafe.Wordpress.default_config repeating_ext in
        check_index_matches_oracle merged;
        let ix = C.index merged in
        (match C.find_sanitizer ix "strip_tags" with
        | Some s ->
            Alcotest.(check bool) "the generic XSS-only entry wins" true
              (s.C.san_kinds = [ Vuln.Xss ])
        | None -> Alcotest.fail "strip_tags missing");
        Alcotest.(check int) "both echo sinks fire" 2
          (List.length (C.find_sinks ix "echo")));
    case "file_get_contents keeps its two sinks in spec order" (fun () ->
        Alcotest.(check bool) "non-url LFI, then url SSRF" true
          (List.map
             (fun (s : C.sink_entry) -> (s.C.snk_kind, s.C.snk_path_shape))
             (C.find_sinks (C.index generic) "file_get_contents")
          = [ (Vuln.Path_traversal, `Non_url); (Vuln.Ssrf, `Url_prefix) ]));
  ]

let () =
  Alcotest.run "config"
    [ ("generic PHP profile", generic_cases);
      ("WordPress profile", wordpress_cases);
      ("spec format", spec_cases);
      ("sanitizer contexts (--contexts)", context_cases);
      ("validation", validate_cases);
      ("profile index", index_cases) ]
