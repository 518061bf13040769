(* Chain-key collision detection over the site profile.

   A predictor key is the portable abstraction of a concrete site; the
   policy (cycle elimination, length-N truncation, size-only, the CCE
   XOR key) deliberately identifies distinct call chains.  That is
   harmless while the identified sites agree on their lifetime class —
   but a key shared by an all-short site and a site with long-lived
   objects is a guaranteed-mispredict point: whichever class the
   predictor assigns the key, some of its allocations are wrong.  When
   a model is given and it predicts such a key short-lived, the warning
   hardens into an error. *)

open Diagnostic
module Profile = Site_profile

let rules =
  [
    {
      id = "chain-collision";
      default_severity = Warning;
      doc =
        "distinct call chains share one predictor key but disagree on \
         lifetime class";
    };
    {
      id = "chain-collision-mispredict";
      default_severity = Error;
      doc =
        "a colliding key with disagreeing lifetime classes that the model \
         predicts short-lived";
    };
  ]

let quartiles_of (st : Profile.site) =
  if Lp_quantile.Histogram.count st.st_hist = 0 then "none"
  else
    Format.asprintf "%a" Lp_quantile.Histogram.pp_quartiles
      (Lp_quantile.Histogram.quartiles st.st_hist)

let describe src (st : Profile.site) =
  let cls =
    if st.st_count = st.st_short then "all short-lived"
    else
      Printf.sprintf "%d long-lived of %d"
        (st.st_count - st.st_short)
        st.st_count
  in
  Printf.sprintf "%s (depth %d, %d object(s), %s, lifetimes %s)"
    (Lp_trace.Absint.render_chain src st.st_chain)
    (Lp_trace.Absint.chain_depth src st.st_chain)
    st.st_count cls (quartiles_of st)

let report ?model_index src (pf : Profile.merged) =
  let out = ref [] in
  Array.iter
    (fun (ky : Profile.key) ->
      let members = List.map (fun g -> pf.pf_sites.(g)) ky.ky_sites in
      let shorts =
        List.filter
          (fun (st : Profile.site) ->
            st.st_count > 0 && st.st_short = st.st_count)
          members
      in
      let longs =
        List.filter
          (fun (st : Profile.site) -> st.st_short < st.st_count)
          members
      in
      (* the first short/long member pair on distinct chains, in site
         (= first-appearance) order, anchors the diagnostic *)
      let clash =
        List.find_map
          (fun (s : Profile.site) ->
            List.find_map
              (fun (l : Profile.site) ->
                if l.st_chain <> s.st_chain then Some (s, l) else None)
              longs)
          shorts
      in
      match clash with
      | None -> ()
      | Some (s, l) ->
          let predicted_short =
            match model_index with
            | None -> None
            | Some ix -> (
                match Lifetime.Model.find_key ix ky.ky_key with
                | Some e when e.Lifetime.Model.predicted -> Some e
                | _ -> None)
          in
          let base =
            Printf.sprintf
              "predictor key shared by %d site(s) with disagreeing lifetime \
               classes: %s vs %s"
              (List.length members) (describe src s) (describe src l)
          in
          let d =
            match predicted_short with
            | Some e ->
                make ~rule:"chain-collision-mispredict" ~severity:Error
                  ~event:ky.ky_first_event
                  ~site:(Lifetime.Portable.to_string ky.ky_key)
                  (Printf.sprintf
                     "%s — the model predicts this key short-lived (%d of %d \
                      training objects short), so the long-lived site's \
                      allocations are guaranteed mispredicts"
                     base e.Lifetime.Model.short_count e.Lifetime.Model.count)
            | None ->
                make ~rule:"chain-collision" ~severity:Warning
                  ~event:ky.ky_first_event
                  ~site:(Lifetime.Portable.to_string ky.ky_key)
                  base
          in
          out := d :: !out)
    pf.pf_keys;
  List.rev !out
