(** The 35-plugin catalog.  Names echo the plugins the paper quotes
    (wp-symposium, mail-subscribe-list, wp-photo-album-plus, qtranslate) plus
    invented ones in the same style.  The first 19 are the OOP plugins
    ("Of the 35 plugins analyzed, 19 are developed in OOP", §V.A). *)

let plugin_names =
  [| (* OOP plugins: 0..18 *)
     "mail-subscribe-list"; "wp-photo-album-plus"; "wp-symposium";
     "event-ticket-desk"; "simple-donation-box"; "member-directory-pro";
     "recipe-card-maker"; "gallery-grid-view"; "forum-digest-mailer";
     "booking-calendar-lite"; "store-locator-map"; "quiz-builder-plus";
     "newsletter-archive"; "download-counter-hub"; "testimonial-slider";
     "job-board-manager"; "faq-accordion-pack"; "poll-widget-deluxe";
     "classified-ads-board";
     (* procedural plugins: 19..34 *)
     "qtranslate"; "contact-form-basic"; "related-posts-simple";
     "social-share-bar"; "custom-footer-text"; "maintenance-mode-page";
     "rss-importer-light"; "search-highlighter"; "broken-link-notifier";
     "image-watermarker"; "visitor-counter-classic"; "sitemap-pinger";
     "comment-guard"; "price-table-shortcode"; "weather-badge";
     "archive-dropdown-plus" |]

let () = assert (Array.length plugin_names = 35)

type plugin_output = {
  po_name : string;
  po_project : Phplang.Project.t;
  po_seeds : Gt.seed list;
}

type corpus = {
  version : Plan.version;
  plugins : plugin_output list;
  seeds : Gt.seed list;  (** all plugins *)
}

(* Mirror of the builder's file layout, used to size the padding and to
   count the files whose content carries across versions.  Checked against
   the real build by the corpus size tests. *)
type plugin_layout = {
  pl_files : int;  (** base files (before padding-only extras) *)
  pl_carried : int;
      (** base files identical in both corpus versions (main, persistent
          chunks, defaults, carried chains — extras counted separately) *)
}

let plugin_layout ~carried ~chains_carried (instances : Plan.inst list) =
  let sel p = List.length (List.filter p instances) in
  let selc p = List.length (List.filter (fun i -> p i && carried i) instances) in
  let is_clean (i : Plan.inst) =
    i.Plan.in_placement = Plan.Clean_file && i.Plan.in_pattern <> Plan.T_uninit
  in
  let is_uninit (i : Plan.inst) = i.Plan.in_pattern = Plan.T_uninit in
  let is_oop (i : Plan.inst) = i.Plan.in_placement = Plan.Oop_file in
  let is_deep (i : Plan.inst) = i.Plan.in_placement = Plan.Deep_file in
  let ceil_div a b = (a + b - 1) / b in
  let c = sel is_clean and pc = selc is_clean in
  let u = sel is_uninit and pu = selc is_uninit in
  let o = sel is_oop and po = selc is_oop in
  let deep = sel is_deep in
  {
    pl_files =
      1 (* main *)
      + ceil_div pc Builder.clean_chunk
      + ceil_div (c - pc) Builder.clean_chunk
      + ceil_div pu Builder.uninit_chunk
      + ceil_div (u - pu) Builder.uninit_chunk
      + (if pu > 0 then 1 else 0) (* defaults.php *)
      + (if u - pu > 0 then 1 else 0) (* defaults-extra.php *)
      + ceil_div po Builder.oop_chunk
      + ceil_div (o - po) Builder.oop_chunk
      + (if deep > 0 then 1 + Builder.chain_len else 0);
    pl_carried =
      1
      + ceil_div pc Builder.clean_chunk
      + ceil_div pu Builder.uninit_chunk
      + (if pu > 0 then 1 else 0)
      + ceil_div po Builder.oop_chunk
      + (if deep > 0 && chains_carried then Builder.chain_len else 0);
  }

let generate ?(scale = 1.0) version : corpus =
  Filler.reset ();
  let pers_ids = Plan.persistent_ids () in
  let carried (i : Plan.inst) = Plan.SS.mem i.Plan.in_id pers_ids in
  (* chain files carry over only where the plugin is deep in BOTH versions
     (the engine file itself is version-specific) *)
  let chains_carried k =
    List.mem k (Plan.deep_plugins Plan.V2012)
    && List.mem k (Plan.deep_plugins Plan.V2014)
  in
  let layout v =
    let instances = Plan.instances v in
    let by_plugin = Array.make 35 [] in
    List.iter
      (fun (i : Plan.inst) ->
        by_plugin.(i.Plan.in_plugin) <- i :: by_plugin.(i.Plan.in_plugin))
      instances;
    Array.iteri (fun k l -> by_plugin.(k) <- List.rev l) by_plugin;
    let layouts =
      Array.mapi
        (fun k insts ->
          plugin_layout ~carried ~chains_carried:(chains_carried k) insts)
        by_plugin
    in
    (* padding: bring the total file count up to the paper's corpus size *)
    let base_total =
      Array.fold_left (fun acc l -> acc + l.pl_files) 0 layouts
    in
    let scaled_files =
      max base_total
        (int_of_float (scale *. float_of_int (Plan.target_files v)))
    in
    let extra_total = max 0 (scaled_files - base_total) in
    let extras = Array.make 35 (extra_total / 35) in
    for k = 0 to (extra_total mod 35) - 1 do
      extras.(k) <- extras.(k) + 1
    done;
    (by_plugin, layouts, extras, scaled_files)
  in
  let _, _, extras12, scaled12 = layout Plan.V2012 in
  (* every carried file — in either version — is padded to the 2012 quota,
     so its content is the same bytes in both corpora *)
  let q12 =
    int_of_float
      (scale *. float_of_int (Plan.target_loc Plan.V2012)
      /. float_of_int scaled12)
  in
  let by_plugin, extras, carried_extras, file_quota =
    match version with
    | Plan.V2012 ->
        let by, _, ex, _ = layout Plan.V2012 in
        (by, ex, Array.copy ex, q12)
    | Plan.V2014 ->
        let by, layouts, ex, scaled14 = layout Plan.V2014 in
        let carried_extras =
          Array.init 35 (fun k -> min extras12.(k) ex.(k))
        in
        let carried_total =
          Array.fold_left (fun acc l -> acc + l.pl_carried) 0 layouts
          + Array.fold_left ( + ) 0 carried_extras
        in
        (* version-specific files absorb the LOC the carried files do not
           provide, keeping the corpus on the paper's 2014 size *)
        let new_files = max 1 (scaled14 - carried_total) in
        let q_new =
          int_of_float
            ((scale *. float_of_int (Plan.target_loc Plan.V2014)
             -. float_of_int (carried_total * q12))
            /. float_of_int new_files)
        in
        (by, ex, carried_extras, max 1 q_new)
  in
  let plugins =
    List.init 35 (fun k ->
        let name = plugin_names.(k) in
        let { Builder.project; seeds } =
          Builder.build ~version ~plugin_name:name ~instances:by_plugin.(k)
            ~carried ~extra_files:extras.(k)
            ~carried_extra_files:carried_extras.(k)
            ~chains_carried:(chains_carried k) ~file_quota
            ~carried_file_quota:q12
        in
        { po_name = name; po_project = project; po_seeds = seeds })
  in
  {
    version;
    plugins;
    seeds = List.concat_map (fun p -> p.po_seeds) plugins;
  }

(** Total files and LOC across the corpus, for the §V.E size report. *)
let stats corpus =
  List.fold_left
    (fun (files, loc) p ->
      ( files + Phplang.Project.file_count p.po_project,
        loc + Phplang.Project.loc p.po_project ))
    (0, 0) corpus.plugins
