(** Training: fold a trace into a site table.

    For each allocation, derive the site key under the configured policy
    (complete cycle-eliminated chain + size, length-N sub-chain + size,
    size only, or encryption key + size) and fold the object's lifetime
    into that site's statistics. *)

module Site = Lp_callchain.Site

type site_table = Site_stats.t Site.Table.t

let site_of_alloc (trace : Lp_trace.Trace.t) ~policy ~chain ~key ~size =
  let raw_chain = Lp_trace.Trace.chain_of_alloc trace chain in
  Site.make policy ~raw_chain ~key ~size

let collect ?(config = Config.default) (trace : Lp_trace.Trace.t) : site_table =
  let lifetimes = Lp_trace.Lifetimes.compute trace in
  let table : site_table = Site.Table.create 256 in
  Lp_trace.Trace.iter_allocs trace (fun ~obj ~size ~chain ~key ~tag:_ ->
      let site = site_of_alloc trace ~policy:config.policy ~chain ~key ~size in
      let stats =
        match Site.Table.find_opt table site with
        | Some s -> s
        | None ->
            let s = Site_stats.create () in
            Site.Table.add table site s;
            s
      in
      let lifetime = lifetimes.lifetime.(obj) in
      let survived = lifetimes.survived.(obj) in
      let short =
        Lp_trace.Lifetimes.is_short_lived lifetimes
          ~threshold:config.short_lived_threshold obj
      in
      Site_stats.observe stats ~size ~lifetime ~survived ~short
        ~refs:trace.obj_refs.(obj));
  table

type streamed = {
  table : site_table;
  end_clock : int;  (** total bytes allocated — [Trace.total_bytes] of the stream *)
  n_objects : int;
}

(* Streaming training: one pass over a source, never materializing the
   event array.  Per-object lifetime state and one record per allocation
   (site-stats pointer, object, size) are retained — memory scales with
   the allocation count, not the event count — and the deferred
   observation replays in allocation-event order, so the resulting table
   (entries, insertion order, per-site statistics) is identical to
   [collect] on the materialized trace. *)
let collect_source ?(config = Config.default) (src : Lp_trace.Source.t) :
    streamed =
  let table : site_table = Site.Table.create 256 in
  let dummy = Site_stats.create () in
  let a_stats = ref (Array.make 1024 dummy) in
  let n_allocs = ref 0 in
  let push_stats s =
    if !n_allocs = Array.length !a_stats then begin
      let grown = Array.make (2 * !n_allocs) dummy in
      Array.blit !a_stats 0 grown 0 !n_allocs;
      a_stats := grown
    end;
    !a_stats.(!n_allocs) <- s;
    incr n_allocs
  in
  let hint =
    match src.Lp_trace.Source.n_objects_hint with Some n -> n | None -> 1024
  in
  let a_obj = Lp_trace.Grow.create 1024 in
  let a_size = Lp_trace.Grow.create 1024 in
  let birth = Lp_trace.Grow.create hint in
  let lifetime = Lp_trace.Grow.create hint in
  let survived = Lp_trace.Grow.create ~default:1 hint in
  let clock = ref 0 in
  Lp_trace.Source.iter
    (function
      | Lp_trace.Event.Alloc { obj; size; chain; key; _ } ->
          let site =
            Site.make config.policy
              ~raw_chain:(src.Lp_trace.Source.chain chain)
              ~key ~size
          in
          let stats =
            match Site.Table.find_opt table site with
            | Some s -> s
            | None ->
                let s = Site_stats.create () in
                Site.Table.add table site s;
                s
          in
          push_stats stats;
          Lp_trace.Grow.push a_obj obj;
          Lp_trace.Grow.push a_size size;
          Lp_trace.Grow.set birth obj !clock;
          clock := !clock + size
      | Lp_trace.Event.Free { obj; _ } ->
          Lp_trace.Grow.set lifetime obj
            (!clock - Lp_trace.Grow.get birth obj);
          Lp_trace.Grow.set survived obj 0
      | Lp_trace.Event.Realloc { old_size; new_size; _ } ->
          (* training observes sites at allocation only; a resize just
             advances the clock, like the lifetime folds *)
          clock := !clock + max 0 (new_size - old_size)
      | Lp_trace.Event.Touch _ -> ())
    src;
  let end_clock = !clock in
  for i = 0 to !n_allocs - 1 do
    let obj = Lp_trace.Grow.get a_obj i in
    let size = Lp_trace.Grow.get a_size i in
    let surv = Lp_trace.Grow.get survived obj = 1 in
    let lt =
      if surv then end_clock - Lp_trace.Grow.get birth obj
      else Lp_trace.Grow.get lifetime obj
    in
    let short = (not surv) && lt < config.short_lived_threshold in
    Site_stats.observe !a_stats.(i) ~size ~lifetime:lt ~survived:surv ~short
      ~refs:(src.Lp_trace.Source.refs_of obj)
  done;
  {
    table;
    end_clock;
    n_objects = src.Lp_trace.Source.n_objects_now ();
  }

(* Sharded training: each range derives the site of its allocations —
   the expensive per-event work, [Site.make] hashes a call chain — inside
   the parallel section, riding on [Lifetimes.fold_range] for the
   lifetime state.  The merge builds the table in global allocation
   order, so entries, insertion order and per-site statistics are
   identical to [collect_source] over the whole stream. *)
type range_collected = {
  rc_sites : Site.t array;  (** one per allocation, range event order *)
  rc_fold : Lp_trace.Lifetimes.range_fold;
}

let collect_range ?(config = Config.default) (rg : Lp_trace.Sharded.range) =
  let sites = ref [] in
  let fold =
    Lp_trace.Lifetimes.fold_range
      ~on_alloc:(fun src ~size ~chain ~key ->
        sites :=
          Site.make config.policy
            ~raw_chain:(src.Lp_trace.Source.chain chain)
            ~key ~size
          :: !sites)
      rg
  in
  { rc_sites = Array.of_list (List.rev !sites); rc_fold = fold }

let merge_ranges ?(config = Config.default) (sh : Lp_trace.Sharded.t) parts :
    streamed =
  let hdr = Lp_trace.Sharded.header sh in
  let resolved =
    Lp_trace.Lifetimes.resolve (List.map (fun p -> p.rc_fold) parts)
  in
  let table : site_table = Site.Table.create 256 in
  List.iter
    (fun p ->
      Array.iteri
        (fun i site ->
          let obj = p.rc_fold.Lp_trace.Lifetimes.rf_a_obj.(i) in
          let size = p.rc_fold.Lp_trace.Lifetimes.rf_a_size.(i) in
          let stats =
            match Site.Table.find_opt table site with
            | Some s -> s
            | None ->
                let s = Site_stats.create () in
                Site.Table.add table site s;
                s
          in
          let surv = Lp_trace.Lifetimes.resolved_survived resolved obj in
          let lt = Lp_trace.Lifetimes.resolved_lifetime resolved obj in
          let short = (not surv) && lt < config.short_lived_threshold in
          Site_stats.observe stats ~size ~lifetime:lt ~survived:surv ~short
            ~refs:hdr.Lp_trace.Binio.obj_refs.(obj))
        p.rc_sites)
    parts;
  {
    table;
    end_clock = Lp_trace.Lifetimes.resolved_end_clock resolved;
    n_objects = hdr.Lp_trace.Binio.n_objects;
  }

let total_sites (table : site_table) = Site.Table.length table

let fold table init f = Site.Table.fold f table init
