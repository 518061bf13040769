(* Live-interval overlap analysis: fragmentation pressure before any
   backend replay.

   The domain tracks, per site (birth chain × current size), the bytes
   the site holds live as the stream advances — an interval lattice in
   which an allocation opens an interval, a free closes it and a realloc
   migrates the object's bytes between size buckets of its birth chain.
   Per range it records each site's net byte delta and its *relative*
   peak (the max prefix sum over the range's touching events) together
   with the absolute global live bytes at that moment; the merge
   prefix-sums the nets in range order to recover each site's absolute
   entry level, so site peaks, their events and the foreign co-live
   bytes at the peak are exactly the sequential pass's — a
   max-prefix-sum merge, the same shape as Stats' max-candidate merge.

   A site whose peak is a large share of the global live-heap peak while
   a comparable volume of *other* sites' bytes is co-live marks a
   fragmentation hotspot: interleaved lifetimes from different sites are
   what defeats address-ordered reuse (and what the paper's
   short-lived arenas segregate away). *)

open Diagnostic
module Absint = Lp_trace.Absint

type summary = {
  lv_chains : int array;  (** per local site: birth chain id *)
  lv_sizes : int array;  (** per local site: size bucket *)
  lv_net : int array;  (** net in-range byte delta *)
  lv_relpeak : int array;  (** max prefix sum over the range's events *)
  lv_peak_event : int array;  (** first event attaining it (absolute) *)
  lv_glive_at_peak : int array;  (** global live bytes just after it *)
  lv_allocs : int array;
  lv_alloc_bytes : int array;
  lv_gpeak : int;  (** absolute global live-byte peak; [min_int] if empty *)
  lv_gpeak_event : int;
}

type site = {
  li_chain : int;
  li_size : int;
  li_peak : int;  (** peak simultaneous live bytes of this site *)
  li_peak_event : int;
  li_foreign_at_peak : int;  (** other sites' live bytes at that event *)
  li_allocs : int;
  li_alloc_bytes : int;
}

type merged = {
  lm_sites : site array;  (** global first-appearance order *)
  lm_n_sites : int;
  lm_gpeak : int;
  lm_gpeak_event : int;
}

type Absint.token += Summary of summary | Merged of merged

let enter (ctx : Absint.ctx) =
  let ids = Lp_trace.Site_intern.create () in
  let net = Lp_trace.Grow.create 256 in
  let relpeak = Lp_trace.Grow.create 256 in
  let peak_event = Lp_trace.Grow.create 256 in
  let glive_at_peak = Lp_trace.Grow.create 256 in
  let allocs = Lp_trace.Grow.create 256 in
  let alloc_bytes = Lp_trace.Grow.create 256 in
  let gpeak = ref min_int and gpeak_event = ref (-1) in
  let intern chain size =
    let n = Lp_trace.Site_intern.length ids in
    let id = Lp_trace.Site_intern.intern ids chain size in
    if id = n then begin
      Lp_trace.Grow.set net id 0;
      Lp_trace.Grow.set relpeak id min_int;
      Lp_trace.Grow.set peak_event id (-1);
      Lp_trace.Grow.set glive_at_peak id 0;
      Lp_trace.Grow.set allocs id 0;
      Lp_trace.Grow.set alloc_bytes id 0
    end;
    id
  in
  let site_delta ~event ~glive_post id delta =
    let n = Lp_trace.Grow.get net id + delta in
    Lp_trace.Grow.set net id n;
    if n > Lp_trace.Grow.get relpeak id then begin
      Lp_trace.Grow.set relpeak id n;
      Lp_trace.Grow.set peak_event id event;
      Lp_trace.Grow.set glive_at_peak id glive_post
    end
  in
  let step ev =
    let event = ctx.Absint.cx_event in
    let gdelta =
      match ev with
      | Lp_trace.Event.Alloc { size; _ } -> size
      | Lp_trace.Event.Free { obj; _ } ->
          if obj >= 0 then -Absint.cur_size ctx obj else 0
      | Lp_trace.Event.Realloc { obj; new_size; _ } ->
          if obj >= 0 then new_size - Absint.cur_size ctx obj else 0
      | Lp_trace.Event.Touch _ -> 0
    in
    let glive_post = ctx.Absint.cx_live_bytes + gdelta in
    (match ev with
    | Lp_trace.Event.Alloc { obj = _; size; chain; _ } ->
        let id = intern chain size in
        Lp_trace.Grow.set allocs id (Lp_trace.Grow.get allocs id + 1);
        Lp_trace.Grow.set alloc_bytes id
          (Lp_trace.Grow.get alloc_bytes id + size);
        site_delta ~event ~glive_post id size
    | Lp_trace.Event.Free { obj; _ } ->
        if Absint.born ctx obj then
          let cur = Absint.cur_size ctx obj in
          site_delta ~event ~glive_post
            (intern (Absint.birth_chain ctx obj) cur)
            (-cur)
    | Lp_trace.Event.Realloc { obj; new_size; _ } ->
        if Absint.born ctx obj then begin
          let chain = Absint.birth_chain ctx obj in
          let cur = Absint.cur_size ctx obj in
          (* the object's bytes migrate between its birth chain's size
             buckets: close the old interval, open the new one *)
          site_delta ~event ~glive_post (intern chain cur) (-cur);
          site_delta ~event ~glive_post (intern chain new_size) new_size
        end
    | Lp_trace.Event.Touch _ -> ());
    if glive_post > !gpeak then begin
      gpeak := glive_post;
      gpeak_event := event
    end
  in
  let finish () =
    let n = Lp_trace.Site_intern.length ids in
    let arr g = Array.init n (Lp_trace.Grow.get g) in
    Summary
      {
        lv_chains = Lp_trace.Site_intern.chains ids;
        lv_sizes = Lp_trace.Site_intern.sizes ids;
        lv_net = arr net;
        lv_relpeak = arr relpeak;
        lv_peak_event = arr peak_event;
        lv_glive_at_peak = arr glive_at_peak;
        lv_allocs = arr allocs;
        lv_alloc_bytes = arr alloc_bytes;
        lv_gpeak = !gpeak;
        lv_gpeak_event = !gpeak_event;
      }
  in
  (step, finish)

let unpack = function
  | Summary s -> s
  | _ -> invalid_arg "Liveint: foreign token"

type acc = {
  ac_chain : int;
  ac_size : int;
  mutable ac_entry : int;  (** live bytes at the next range's entry *)
  mutable ac_peak : int;
  mutable ac_peak_event : int;
  mutable ac_foreign : int;
  mutable ac_allocs : int;
  mutable ac_alloc_bytes : int;
}

let merge tokens =
  let sums = List.map unpack tokens in
  let site_ids = Lp_trace.Site_intern.create ~capacity:1024 () in
  let accs = ref [||] in  (* by site id *)
  let gpeak = ref min_int and gpeak_event = ref (-1) in
  List.iter
    (fun s ->
      Array.iteri
        (fun l chain ->
          let size = s.lv_sizes.(l) in
          let n = Lp_trace.Site_intern.length site_ids in
          let id = Lp_trace.Site_intern.intern site_ids chain size in
          if id = n then begin
            let a =
              {
                ac_chain = chain;
                ac_size = size;
                ac_entry = 0;
                ac_peak = min_int;
                ac_peak_event = -1;
                ac_foreign = 0;
                ac_allocs = 0;
                ac_alloc_bytes = 0;
              }
            in
            if n = Array.length !accs then
              accs := Array.append !accs (Array.make (max 64 n) a);
            !accs.(n) <- a
          end;
          let a = !accs.(id) in
          (* the range's relative peak shifted by the site's absolute
             entry level; strict > keeps the earliest attainment, since
             ranges arrive in order *)
          let candidate = a.ac_entry + s.lv_relpeak.(l) in
          if candidate > a.ac_peak then begin
            a.ac_peak <- candidate;
            a.ac_peak_event <- s.lv_peak_event.(l);
            a.ac_foreign <- s.lv_glive_at_peak.(l) - candidate
          end;
          a.ac_entry <- a.ac_entry + s.lv_net.(l);
          a.ac_allocs <- a.ac_allocs + s.lv_allocs.(l);
          a.ac_alloc_bytes <- a.ac_alloc_bytes + s.lv_alloc_bytes.(l))
        s.lv_chains;
      if s.lv_gpeak > !gpeak then begin
        gpeak := s.lv_gpeak;
        gpeak_event := s.lv_gpeak_event
      end)
    sums;
  let accs = Array.sub !accs 0 (Lp_trace.Site_intern.length site_ids) in
  Merged
    {
      lm_sites =
        Array.map
          (fun a ->
            {
              li_chain = a.ac_chain;
              li_size = a.ac_size;
              li_peak = a.ac_peak;
              li_peak_event = a.ac_peak_event;
              li_foreign_at_peak = a.ac_foreign;
              li_allocs = a.ac_allocs;
              li_alloc_bytes = a.ac_alloc_bytes;
            })
          accs;
      lm_n_sites = Array.length accs;
      lm_gpeak = !gpeak;
      lm_gpeak_event = !gpeak_event;
    }

let domain : (module Absint.DOMAIN) =
  (module struct
    let name = "live-intervals"
    let reads_heap = true
    let enter = enter
    let merge = merge
  end)

let project = function
  | Merged m -> m
  | _ -> invalid_arg "Liveint.project: not a live-interval token"

let rules =
  [
    {
      id = "live-overlap-hotspot";
      default_severity = Warning;
      doc =
        "a site's live-byte peak overlaps heavily with foreign live bytes \
         (fragmentation hotspot)";
    };
    {
      id = "live-peak-pressure";
      default_severity = Info;
      doc = "the trace's peak simultaneous live bytes and where it occurs";
    };
  ]

let default_hotspot_share = 0.25

let report ?(hotspot_share = default_hotspot_share) src (m : merged) =
  let out = ref [] in
  if m.lm_gpeak > min_int && m.lm_gpeak > 0 then begin
    let gpeak = float_of_int m.lm_gpeak in
    Array.iter
      (fun (st : site) ->
        if
          st.li_peak > 0
          && float_of_int st.li_peak >= hotspot_share *. gpeak
          && float_of_int st.li_foreign_at_peak >= hotspot_share *. gpeak
        then
          out :=
            make ~rule:"live-overlap-hotspot" ~severity:Warning
              ~event:st.li_peak_event
              ~site:
                (Printf.sprintf "[%s; size=%d]"
                   (Absint.render_chain src st.li_chain)
                   st.li_size)
              (Printf.sprintf
                 "site peaks at %d live bytes (%.0f%% of the global peak %d) \
                  while %d foreign bytes are co-live — interleaved lifetimes \
                  predict fragmentation here (%d allocation(s), %d bytes \
                  total)"
                 st.li_peak
                 (100. *. float_of_int st.li_peak /. gpeak)
                 m.lm_gpeak st.li_foreign_at_peak st.li_allocs
                 st.li_alloc_bytes)
            :: !out)
      m.lm_sites;
    out :=
      make ~rule:"live-peak-pressure" ~severity:Info ~event:m.lm_gpeak_event
        (Printf.sprintf
           "peak live heap: %d bytes at event %d, spread over %d site(s)"
           m.lm_gpeak m.lm_gpeak_event m.lm_n_sites)
      :: !out
  end;
  List.rev !out
