(* The audit orchestrator: three analyses over one Absint pass.

   One engine traversal drives two domains — the shared site profile
   (feeding both the collision and coverage analyses) and the
   live-interval domain — then the three reports run over the merged
   summaries.  Everything after the traversal is pure post-processing,
   so materialized, streamed and sharded runs produce byte-identical
   diagnostics. *)

type options = {
  au_threshold : int;
  au_rounding : int;
  au_policy : Lp_callchain.Site.policy;
  au_margin : float;
  au_hotspot_share : float;
  au_model : Lifetime.Model.t option;
  au_online : Lifetime.Oracle.online_params option;
  au_only : string list option;
  au_disable : string list option;
}

let default_options =
  {
    au_threshold = Lifetime.Config.default.short_lived_threshold;
    au_rounding = Lifetime.Config.default.size_rounding;
    au_policy = Lifetime.Config.default.policy;
    au_margin = Coverage.default_margin;
    au_hotspot_share = Liveint.default_hotspot_share;
    au_model = None;
    au_online = None;
    au_only = None;
    au_disable = None;
  }

let with_model opts (m : Lifetime.Model.t) =
  {
    opts with
    au_threshold = m.Lifetime.Model.threshold;
    au_rounding = m.Lifetime.Model.rounding;
    au_policy =
      Option.value (Lifetime.Model.site_policy m) ~default:opts.au_policy;
    au_model = Some m;
  }

let rules = Collision.rules @ Coverage.rules @ Liveint.rules

let analyses opts =
  [
    Site_profile.domain
      {
        Site_profile.pc_policy = opts.au_policy;
        pc_rounding = opts.au_rounding;
        pc_threshold = opts.au_threshold;
      };
    Liveint.domain;
  ]

let report opts src = function
  | [ prof_tok; live_tok ] ->
      let enabled =
        Diagnostic.select ~rules ?only:opts.au_only ?disable:opts.au_disable ()
      in
      let pf = Site_profile.project prof_tok in
      let lm = Liveint.project live_tok in
      let model_index = Option.map Lifetime.Model.index opts.au_model in
      Collision.report ?model_index src pf
      @ Coverage.report ?model:opts.au_model ?online:opts.au_online
          ~margin:opts.au_margin pf
      @ Liveint.report ~hotspot_share:opts.au_hotspot_share src lm
      |> List.filter (fun d -> enabled d.Diagnostic.rule)
  | _ -> invalid_arg "Audit.report: expected two domain tokens"

(* reports run after the pass, against the complete tables *)
let run_source opts src =
  report opts src (Lp_trace.Absint.run_source ~analyses:(analyses opts) src)

let run opts trace = run_source opts (Lp_trace.Source.of_trace trace)

let run_sharded ?domains opts sh =
  report opts (Lp_trace.Sharded.source sh)
    (Lifetime.Shard.run ?domains ~analyses:(analyses opts) sh)

let clean ds = not (Diagnostic.has_errors ds)

let rules_markdown () =
  let b = Buffer.create 1024 in
  Buffer.add_string b "| rule | severity | description |\n";
  Buffer.add_string b "|------|----------|-------------|\n";
  List.iter
    (fun (r : Diagnostic.rule) ->
      Buffer.add_string b
        (Printf.sprintf "| `%s` | %s | %s |\n" r.Diagnostic.id
           (Diagnostic.severity_to_string r.Diagnostic.default_severity)
           r.Diagnostic.doc))
    rules;
  Buffer.contents b
