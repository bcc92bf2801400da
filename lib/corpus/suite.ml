(** Builder shared by the small dedicated experiment suites (E11's
    {!Context_suite}, E13's {!Flow_suite}) — separate from the calibrated
    35-plugin 2012/2014 plans, whose instance counts must not change.

    Each plugin is a fixed mix of (pattern, vector) instances emitted in
    order into clean files; instance ids are [prefix] followed by a
    four-digit counter running across the whole suite, so each suite's
    prefix keeps its ids disjoint from the main plans' ["s"]/["t"] and from
    the other suites.  [extend k built] post-processes plugin [k] after it
    is built (the flow suite appends a raw file). *)

(** A plugin name and its (pattern, vector) instances in emission order. *)
type plugin = string * (Plan.pkind * Secflow.Vuln.vector) list

let file_quota = 60

(** Deterministic: fixed seeds, fresh filler state. *)
let generate ~prefix ~(plugins : plugin list) ?(extend = fun _ built -> built)
    () : Catalog.corpus =
  Filler.reset ();
  let next = ref 0 in
  let plugins =
    List.mapi
      (fun k (name, mix) ->
        let instances =
          List.map
            (fun (pattern, vector) ->
              incr next;
              { Plan.in_id = Printf.sprintf "%s%04d" prefix !next;
                in_pattern = pattern; in_vector = vector;
                in_placement = Plan.Clean_file; in_plugin = k;
                in_persistent = false })
            mix
        in
        let { Builder.project; seeds } =
          extend k
            (Builder.build ~version:Plan.V2014 ~plugin_name:name ~instances
               ~carried:(fun _ -> false) ~extra_files:0 ~carried_extra_files:0
               ~chains_carried:false ~file_quota ~carried_file_quota:file_quota)
        in
        { Catalog.po_name = name; po_project = project; po_seeds = seeds })
      plugins
  in
  {
    Catalog.version = Plan.V2014;
    plugins;
    seeds = List.concat_map (fun p -> p.Catalog.po_seeds) plugins;
  }
