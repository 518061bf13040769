(* The audit engine: one abstract-interpretation pass over a trace
   stream, shared by every analysis.

   An analysis is a DOMAIN: it receives every event of one range
   together with the engine's concrete context (event index, clocks,
   live-heap counters, per-object current size and birth chain — all
   seeded from a sharded range's entry counters and carry-in set), and
   folds it into a range summary [token].  [merge] combines the
   summaries of a covering partition, walked in range order, into the
   whole-trace summary.

   The sequential paths are the one-range special case: [run_source]
   replays the whole stream as a single range and merges the singleton,
   so materialized, --stream and --sharded output is byte-identical by
   construction — the same code runs in all three, only the partition
   differs — provided each domain's [merge] reproduces sequential
   accumulation (interning in range order = global first-appearance
   order, deferred observations replayed in global allocation order;
   the same discipline as the stats/lifetimes/train/lint folds). *)

module Source = Lp_trace.Source
module Sharded = Lp_trace.Sharded
module Binio = Lp_trace.Binio
module Event = Lp_trace.Event
module Grow = Lp_trace.Grow
module Site = Lp_callchain.Site
module Chain = Lp_callchain.Chain

type token = ..

type entry = {
  en_first_event : int;
  en_start_clock : int;
  en_live_bytes : int;
  en_live_objs : int;
  en_next_obj : int;
  en_carry : Binio.carry array;
}

let whole =
  {
    en_first_event = 0;
    en_start_clock = 0;
    en_live_bytes = 0;
    en_live_objs = 0;
    en_next_obj = 0;
    en_carry = [||];
  }

let entry_of_range (rg : Sharded.range) =
  {
    en_first_event = rg.Sharded.rg_first_event;
    en_start_clock = rg.Sharded.rg_start_clock;
    en_live_bytes = rg.Sharded.rg_live_bytes;
    en_live_objs = rg.Sharded.rg_live_objs;
    en_next_obj = rg.Sharded.rg_next_obj;
    en_carry = rg.Sharded.rg_carry;
  }

type ctx = {
  mutable cx_event : int;
  mutable cx_clock : int;
  mutable cx_live_bytes : int;
  mutable cx_live_objs : int;
  cx_src : Source.t;
  cx_cur_size : int -> int;
  cx_born : int -> bool;
  cx_birth_chain : int -> int;
}

module type DOMAIN = sig
  val name : string
  val enter : Source.t -> entry -> (ctx -> Event.t -> unit) * (unit -> token)
  val merge : token list -> token
end

(* -- the concrete interpreter ----------------------------------------------------- *)

let run_over analyses (src : Source.t) (en : entry) =
  let hint =
    match src.Source.n_objects_hint with
    | Some n -> max 64 n
    | None -> max 64 (Array.length en.en_carry)
  in
  let cur_size = Grow.create hint in
  let birth_chain = Grow.create ~default:(-1) hint in
  Array.iter
    (fun (cr : Binio.carry) ->
      Grow.set cur_size cr.Binio.cr_obj cr.Binio.cr_size;
      Grow.set birth_chain cr.Binio.cr_obj cr.Binio.cr_alloc_chain)
    en.en_carry;
  let ctx =
    {
      cx_event = en.en_first_event - 1;
      cx_clock = en.en_start_clock;
      cx_live_bytes = en.en_live_bytes;
      cx_live_objs = en.en_live_objs;
      cx_src = src;
      cx_cur_size = (fun obj -> if obj >= 0 then Grow.get cur_size obj else 0);
      cx_born = (fun obj -> obj >= 0 && Grow.get birth_chain obj >= 0);
      cx_birth_chain =
        (fun obj -> if obj >= 0 then Grow.get birth_chain obj else -1);
    }
  in
  let entered =
    List.map (fun (module D : DOMAIN) -> D.enter src en) analyses
  in
  let steps = Array.of_list (List.map fst entered) in
  let n_steps = Array.length steps in
  Source.iter
    (fun ev ->
      ctx.cx_event <- ctx.cx_event + 1;
      (* domains observe the pre-event context *)
      for i = 0 to n_steps - 1 do
        steps.(i) ctx ev
      done;
      match ev with
      | Event.Alloc { obj; size; chain; _ } ->
          if obj >= 0 then begin
            Grow.set cur_size obj size;
            Grow.set birth_chain obj chain
          end;
          ctx.cx_clock <- ctx.cx_clock + size;
          ctx.cx_live_bytes <- ctx.cx_live_bytes + size;
          ctx.cx_live_objs <- ctx.cx_live_objs + 1
      | Event.Free { obj; _ } ->
          if obj >= 0 then
            ctx.cx_live_bytes <- ctx.cx_live_bytes - Grow.get cur_size obj;
          ctx.cx_live_objs <- ctx.cx_live_objs - 1
      | Event.Realloc { obj; old_size; new_size; _ } ->
          if obj >= 0 then begin
            ctx.cx_live_bytes <-
              ctx.cx_live_bytes - Grow.get cur_size obj + new_size;
            Grow.set cur_size obj new_size
          end;
          ctx.cx_clock <- ctx.cx_clock + max 0 (new_size - old_size)
      | Event.Touch _ -> ())
    src;
  List.map (fun (_, finish) -> finish ()) entered

let run_range ~analyses (rg : Sharded.range) =
  run_over analyses (Sharded.range_source rg) (entry_of_range rg)

(* the merges outlive the drained stream, so the pass's heap peak is
   noted again once they return *)
let merge_ranges ~analyses per_range =
  let merged =
    List.mapi
      (fun i (module D : DOMAIN) ->
        D.merge (List.map (fun tokens -> List.nth tokens i) per_range))
      analyses
  in
  Lp_obs.Timings.note_peak_heap ();
  merged

let run_source ~analyses src =
  merge_ranges ~analyses [ run_over analyses src whole ]

let run_sharded ?domains ~analyses (sh : Sharded.t) =
  merge_ranges ~analyses
    (Lifetime.Parallel.map_chunks ?domains ~n_chunks:(Sharded.n_chunks sh)
       (fun ~first ~count -> run_range ~analyses (Sharded.range sh ~first ~count)))

(* -- rendering context for reports ------------------------------------------------ *)

type report_ctx = {
  rp_funcs : Lp_callchain.Func.table;
  rp_chain : int -> Chain.t;
  rp_n_chains : int;
}

let report_ctx_of_source (src : Source.t) =
  {
    rp_funcs = src.Source.funcs ();
    rp_chain = src.Source.chain;
    rp_n_chains = src.Source.n_chains ();
  }

let report_ctx_of_sharded (sh : Sharded.t) =
  let ix = Sharded.index sh in
  {
    rp_funcs = Binio.indexed_funcs ix;
    rp_chain = Binio.indexed_chain ix;
    rp_n_chains = Binio.indexed_n_chains ix;
  }

let chain_depth rctx chain_id =
  if chain_id < 0 || chain_id >= rctx.rp_n_chains then 0
  else Array.length (rctx.rp_chain chain_id)

let render_chain rctx chain_id =
  if chain_id < 0 || chain_id >= rctx.rp_n_chains then
    Printf.sprintf "chain %d" chain_id
  else
    let names = Chain.names rctx.rp_funcs (rctx.rp_chain chain_id) in
    match names with
    | [] -> "<empty chain>"
    | _ ->
        let shown = List.filteri (fun i _ -> i < 3) names in
        String.concat "<-" shown
        ^ if List.length names > 3 then "<-…" else ""

(* -- the shared per-(chain, size) site domain ------------------------------------- *)

module Site_profile = struct
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

  type token += Summary of summary | Profile of merged

  let portable_of cfg funcs site =
    match cfg.pc_policy with
    | Site.Encrypted_key ->
        Lifetime.Portable.of_key_site site ~rounding:cfg.pc_rounding
    | _ -> Lifetime.Portable.of_site funcs ~rounding:cfg.pc_rounding site

  let enter cfg (src : Source.t) (en : entry) =
    let fold =
      Lp_trace.Lifetimes.Fold.create src ~start_clock:en.en_start_clock
        ~carry:en.en_carry
    in
    let ids = Lp_trace.Site_intern.create () in
    let keys = ref [] and firsts = ref [] in
    let alloc_site = Grow.create (Lp_trace.Lifetimes.alloc_hint src) in
    let step (ctx : ctx) ev =
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
            keys := portable_of cfg (src.Source.funcs ()) site :: !keys;
            firsts := ctx.cx_event :: !firsts
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
    | _ -> invalid_arg "Absint.Site_profile: foreign token"

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

  let domain cfg : (module DOMAIN) =
    (module struct
      let name = "site-profile"
      let enter = enter cfg
      let merge = merge cfg
    end)

  let project = function
    | Profile m -> m
    | _ -> invalid_arg "Absint.Site_profile.project: not a profile token"
end
