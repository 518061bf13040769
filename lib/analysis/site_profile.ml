(* The per-(chain, size) site domain the collision and coverage analyses
   share: every allocation is attributed to its concrete site (raw chain
   id x exact size) and to the portable predictor key the configured
   policy maps that site onto, with per-site and per-key lifetime
   statistics accumulated through the [Lifetimes.Fold] machinery
   (deferred, so survivors get their end-of-trace lifetimes).  Several
   concrete sites mapping onto one key is exactly a key collision. *)

module Absint = Lp_trace.Absint
module Source = Lp_trace.Source
module Event = Lp_trace.Event
module Grow = Lp_trace.Grow
module Site = Lp_callchain.Site

type config = {
  pc_policy : Site.policy;
  pc_rounding : int;
  pc_threshold : int;
}

(* one range's quarter: the local (chain, size) site table in in-range
   first-appearance order, the portable key each maps to, one site id
   per allocation, and the lifetime fold the merge resolves against *)
type summary = {
  sm_chains : int array;
  sm_sizes : int array;
  sm_keys : Lifetime.Portable.t array;
  sm_first_event : int array;
  sm_alloc_site : int array;
  sm_fold : Lp_trace.Lifetimes.range_fold;
}

type site = {
  st_chain : int;
  st_size : int;
  st_key : int;  (** index into [pf_keys] *)
  st_first_event : int;
  mutable st_count : int;
  mutable st_short : int;
  mutable st_survivors : int;
  mutable st_max_lifetime : int;
  mutable st_bytes : int;
  st_hist : Lp_quantile.Histogram.t;
}

type key = {
  ky_key : Lifetime.Portable.t;
  ky_first_event : int;
  mutable ky_sites : int list;
  mutable ky_count : int;
  mutable ky_short : int;
  mutable ky_survivors : int;
  mutable ky_max_lifetime : int;
  mutable ky_bytes : int;
}

type merged = {
  pf_sites : site array;
  pf_keys : key array;
  pf_end_clock : int;
  pf_threshold : int;
}

type Absint.token += Summary of summary | Profile of merged

let enter cfg (ctx : Absint.ctx) =
  let src = ctx.Absint.cx_src in
  let fold = Lp_trace.Lifetimes.Fold.create ctx.Absint.cx_entry in
  let ids = Lp_trace.Site_intern.create () in
  let keys = ref [] and firsts = ref [] in
  let alloc_site = Grow.create ctx.Absint.cx_entry.Absint.en_allocs in
  let step ev =
    (match ev with
    | Event.Alloc { size; chain; key; _ } ->
        let n_sites = Lp_trace.Site_intern.length ids in
        let sid = Lp_trace.Site_intern.intern ids chain size in
        if sid = n_sites then begin
          (* corrupt traces can carry unresolvable chain ids; key
             them like an empty chain rather than crashing *)
          let raw_chain =
            if chain >= 0 && chain < src.Source.n_chains () then
              src.Source.chain chain
            else [||]
          in
          let site = Site.make cfg.pc_policy ~raw_chain ~key ~size in
          keys :=
            Lifetime.Portable.of_policy_site cfg.pc_policy src.Source.funcs
              ~rounding:cfg.pc_rounding site
            :: !keys;
          firsts := ctx.Absint.cx_event :: !firsts
        end;
        Grow.push alloc_site sid
    | _ -> ());
    Lp_trace.Lifetimes.Fold.step fold ev
  in
  let finish () =
    Summary
      {
        sm_chains = Lp_trace.Site_intern.chains ids;
        sm_sizes = Lp_trace.Site_intern.sizes ids;
        sm_keys = Array.of_list (List.rev !keys);
        sm_first_event = Array.of_list (List.rev !firsts);
        sm_alloc_site = Grow.take alloc_site;
        sm_fold = Lp_trace.Lifetimes.Fold.finish fold;
      }
  in
  (step, finish)

let unpack = function
  | Summary s -> s
  | _ -> invalid_arg "Site_profile: foreign token"

let merge cfg tokens =
  let sums = List.map unpack tokens in
  let resolved =
    Lp_trace.Lifetimes.resolve (List.map (fun s -> s.sm_fold) sums)
  in
  (* intern sites and keys in range order, which is global
     first-appearance order — the invariant every ordering below
     (diagnostic order, quartile-histogram state) rests on *)
  let site_ids = Lp_trace.Site_intern.create ~capacity:1024 () in
  let key_ids : int Lifetime.Portable.Table.t =
    Lifetime.Portable.Table.create 256
  in
  let sites_rev = ref [] in
  let keys_rev = ref [] and n_keys = ref 0 in
  let maps =
    List.map
      (fun s ->
        Array.mapi
          (fun l chain ->
            let size = s.sm_sizes.(l) in
            let n_sites = Lp_trace.Site_intern.length site_ids in
            let g = Lp_trace.Site_intern.intern site_ids chain size in
            if g < n_sites then g
            else
              let portable = s.sm_keys.(l) in
              let kid =
                match
                  Lifetime.Portable.Table.find_opt key_ids portable
                with
                | Some k -> k
                | None ->
                    let k = !n_keys in
                    incr n_keys;
                    Lifetime.Portable.Table.add key_ids portable k;
                    keys_rev :=
                      {
                        ky_key = portable;
                        ky_first_event = s.sm_first_event.(l);
                        ky_sites = [];
                        ky_count = 0;
                        ky_short = 0;
                        ky_survivors = 0;
                        ky_max_lifetime = 0;
                        ky_bytes = 0;
                      }
                      :: !keys_rev;
                    k
              in
              sites_rev :=
                {
                  st_chain = chain;
                  st_size = size;
                  st_key = kid;
                  st_first_event = s.sm_first_event.(l);
                  st_count = 0;
                  st_short = 0;
                  st_survivors = 0;
                  st_max_lifetime = 0;
                  st_bytes = 0;
                  st_hist = Lp_quantile.Histogram.create ();
                }
                :: !sites_rev;
              g)
          s.sm_chains)
      sums
  in
  let sites = Array.of_list (List.rev !sites_rev) in
  let keys = Array.of_list (List.rev !keys_rev) in
  (* deferred per-allocation observation, in global allocation order *)
  List.iter2
    (fun s map ->
      Array.iteri
        (fun i sid ->
          let st = sites.(map.(sid)) in
          let obj = s.sm_fold.Lp_trace.Lifetimes.rf_a_obj.(i) in
          let size = s.sm_fold.Lp_trace.Lifetimes.rf_a_size.(i) in
          let surv = Lp_trace.Lifetimes.resolved_survived resolved obj in
          let lt = Lp_trace.Lifetimes.resolved_lifetime resolved obj in
          st.st_count <- st.st_count + 1;
          st.st_bytes <- st.st_bytes + size;
          if (not surv) && lt < cfg.pc_threshold then
            st.st_short <- st.st_short + 1;
          if surv then st.st_survivors <- st.st_survivors + 1;
          if lt > st.st_max_lifetime then st.st_max_lifetime <- lt;
          Lp_quantile.Histogram.observe st.st_hist (float_of_int lt))
        s.sm_alloc_site)
    sums maps;
  (* roll member sites up into their keys, in site order *)
  Array.iteri
    (fun g st ->
      let ky = keys.(st.st_key) in
      ky.ky_sites <- g :: ky.ky_sites;
      ky.ky_count <- ky.ky_count + st.st_count;
      ky.ky_short <- ky.ky_short + st.st_short;
      ky.ky_survivors <- ky.ky_survivors + st.st_survivors;
      ky.ky_max_lifetime <- max ky.ky_max_lifetime st.st_max_lifetime;
      ky.ky_bytes <- ky.ky_bytes + st.st_bytes)
    sites;
  Array.iter (fun ky -> ky.ky_sites <- List.rev ky.ky_sites) keys;
  Profile
    {
      pf_sites = sites;
      pf_keys = keys;
      pf_end_clock = Lp_trace.Lifetimes.resolved_end_clock resolved;
      pf_threshold = cfg.pc_threshold;
    }

let domain cfg : (module Absint.DOMAIN) =
  (module struct
    let name = "site-profile"
    let reads_heap = false
    let enter = enter cfg
    let merge = merge cfg
  end)

let project = function
  | Profile m -> m
  | _ -> invalid_arg "Site_profile.project: not a profile token"
