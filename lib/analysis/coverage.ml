(* Predictor-coverage audit: how well does a model cover a trace?

   Three gaps matter to the paper's predictor.  A trace key the model
   has never seen falls to the allocator's fallback path on every
   allocation (cold start); a model key the trace never exercises is
   dead weight in the site database; and a key whose observed lifetimes
   crowd the short-lived cutoff is one input shift away from flipping
   class — exactly the sites an online-adaptive predictor would watch.
   All three are non-fatal (warnings/info): a clean self-trained
   workload audit exits 0. *)

open Diagnostic
module Profile = Site_profile

let rules =
  [
    {
      id = "coverage-cold-start";
      default_severity = Warning;
      doc = "a trace site absent from the model (falls to the fallback path)";
    };
    {
      id = "coverage-dead-site";
      default_severity = Info;
      doc = "a model site never exercised by the trace";
    };
    {
      id = "coverage-threshold-sensitive";
      default_severity = Warning;
      doc =
        "a site's observed lifetimes sit within the margin of the \
         short-lived cutoff";
    };
    {
      id = "coverage-online-cold";
      default_severity = Info;
      doc =
        "a key with member sites too rare to warm the online oracle's \
         promotion window (with --oracle online)";
    };
  ]

let default_margin = 0.125

let report ?model ?online ?(margin = default_margin) (pf : Profile.merged) =
  let out = ref [] in
  let emit d = out := d :: !out in
  let index = Option.map Lifetime.Model.index model in
  let threshold = float_of_int pf.pf_threshold in
  let lo = (1. -. margin) *. threshold and hi = (1. +. margin) *. threshold in
  let seen : unit Lifetime.Portable.Table.t =
    Lifetime.Portable.Table.create (max 16 (Array.length pf.pf_keys))
  in
  Array.iter
    (fun (ky : Profile.key) ->
      Lifetime.Portable.Table.replace seen ky.ky_key ();
      (match index with
      | Some ix when Lifetime.Model.find_key ix ky.ky_key = None ->
          emit
            (make ~rule:"coverage-cold-start" ~severity:Warning
               ~event:ky.ky_first_event
               ~site:(Lifetime.Portable.to_string ky.ky_key)
               (Printf.sprintf
                  "site unseen in training: %d object(s) (%d bytes) across %d \
                   call chain(s) fall to the fallback path"
                  ky.ky_count ky.ky_bytes
                  (List.length ky.ky_sites)))
      | _ -> ());
      (* --oracle online cold start: the online oracle predicts per raw
         (chain, size) site and only after a site's first [promote]
         allocations all died young; a member site the trace exercises
         fewer than [promote] times therefore never leaves the cold-start
         window — its allocations are unpredicted for the whole run,
         however short-lived the key looks in aggregate *)
      (match (online : Lifetime.Oracle.online_params option) with
      | Some p when ky.ky_count > 0 ->
          let cold_sites, cold_objs, cold_bytes =
            List.fold_left
              (fun (n, objs, bytes) s ->
                let st = pf.Profile.pf_sites.(s) in
                if st.Profile.st_count < p.Lifetime.Oracle.promote then
                  (n + 1, objs + st.Profile.st_count, bytes + st.Profile.st_bytes)
                else (n, objs, bytes))
              (0, 0, 0) ky.ky_sites
          in
          if cold_sites > 0 then
            emit
              (make ~rule:"coverage-online-cold" ~severity:Info
                 ~event:ky.ky_first_event
                 ~site:(Lifetime.Portable.to_string ky.ky_key)
                 (Printf.sprintf
                    "online cold start: %d of %d member site(s) (%d object(s), \
                     %d bytes) never reach the promote threshold %d — \
                     unpredicted for the whole run under --oracle online"
                    cold_sites
                    (List.length ky.ky_sites)
                    cold_objs cold_bytes p.Lifetime.Oracle.promote))
      | _ -> ());
      let m = float_of_int ky.ky_max_lifetime in
      if ky.ky_count > 0 && m >= lo && m < hi then
        emit
          (make ~rule:"coverage-threshold-sensitive" ~severity:Warning
             ~event:ky.ky_first_event
             ~site:(Lifetime.Portable.to_string ky.ky_key)
             (Printf.sprintf
                "observed max lifetime %d is within %.3g%% of the short-lived \
                 cutoff %d (on the %s side): one input shift could flip its \
                 class"
                ky.ky_max_lifetime (100. *. margin) pf.pf_threshold
                (if ky.ky_max_lifetime < pf.pf_threshold then "short"
                 else "long"))))
    pf.pf_keys;
  (match model with
  | None -> ()
  | Some (m : Lifetime.Model.t) ->
      List.iter
        (fun (e : Lifetime.Model.entry) ->
          if not (Lifetime.Portable.Table.mem seen e.key) then
            emit
              (make ~rule:"coverage-dead-site" ~severity:Info
                 ~site:(Lifetime.Portable.to_string e.key)
                 (Printf.sprintf
                    "model site never exercised by this trace (%d training \
                     object(s), predicted=%s)"
                    e.count
                    (if e.predicted then "short-lived" else "unpredicted"))))
        m.entries);
  List.rev !out
