(** Training: fold a trace into a site table.

    Training runs in two steps.  The {e profile} is the per-trace half:
    one lifetime pass that interns each allocation's raw birth context —
    (chain id, size), or (encryption key, size) for [Encrypted_key] —
    with {!Lp_trace.Site_intern}, keeps each interned pair's
    threshold-free totals (objects, bytes, survivors, longest lifetime,
    heap references) and, per allocation, its pair and the lifetime the
    short-lived test compares.  The {e derivation} is the per-config
    half: it keys each interned pair under the configured policy
    ({!Site.make} once per pair, not once per allocation), folds the
    pairs' totals into the site table in first-appearance order and
    counts the short-lived objects under the configured threshold.

    The table equals what folding every allocation into its site in
    allocation order builds — entries, statistics and insertion order —
    because pair ids number pairs in first-appearance order (so sites
    are inserted in theirs) and every {!Site_stats} field is a sum or a
    maximum.  A design-space search that trains many (threshold, depth)
    pairs on one trace profiles it once and derives each table. *)

module Site = Lp_callchain.Site
module Site_intern = Lp_trace.Site_intern
module Grow = Lp_trace.Grow
module Lifetimes = Lp_trace.Lifetimes
module Absint = Lp_trace.Absint
module Timings = Lp_obs.Timings

type site_table = Site_stats.t Site.Table.t

(* -- the per-trace profile ------------------------------------------------------- *)

type profile = {
  by_key : bool;  (* pairs are (key, size), for [Encrypted_key] *)
  pair_ck : int array;  (* per pair: its chain id, or its key when [by_key] *)
  pair_size : int array;
  pair_chain : Lp_callchain.Chain.t array;  (* per pair: raw chain; [||] by key *)
  pair_totals : Site_stats.t array;  (* per pair; short-lived counts stay 0 *)
  a_pair : int array;  (* per allocation, in allocation order *)
  a_life : int array;
      (* per allocation: its lifetime, or [max_int] for a survivor — the
         object is short-lived iff this is below the threshold *)
}

(* Only [Encrypted_key] reads the key; every other policy reads the chain
   (and [Size_only] neither, so a chain profile serves it too). *)
let keyed_by_key (policy : Site.policy) =
  match policy with Site.Encrypted_key -> true | _ -> false

type builder = {
  b_by_key : bool;
  b_pairs : Site_intern.t;
  mutable b_totals : Site_stats.t array;
  b_pair : Grow.t;
  b_life : Grow.t;
}

let builder ~by_key hint =
  {
    b_by_key = by_key;
    b_pairs = Site_intern.create ();
    b_totals = [||];
    b_pair = Grow.create hint;
    b_life = Grow.create hint;
  }

(* Profile one allocation; called in allocation order.  [ck] is its
   chain id, or its key when the profile is by key. *)
let observe b ~ck ~size ~lifetime ~survived ~refs =
  let pair = Site_intern.intern b.b_pairs ck size in
  let cap = Array.length b.b_totals in
  if pair = cap then
    b.b_totals <-
      Array.init (max 64 (2 * cap)) (fun i ->
          if i < cap then b.b_totals.(i) else Site_stats.create ());
  Site_stats.observe b.b_totals.(pair) ~size ~lifetime ~survived ~short:false
    ~refs;
  Grow.push b.b_pair pair;
  Grow.push b.b_life (if survived then max_int else lifetime)

let finish b ~chain_of =
  Timings.count "train.profiles" 1;
  let n = Site_intern.length b.b_pairs in
  let pair_ck = Site_intern.chains b.b_pairs in
  {
    by_key = b.b_by_key;
    pair_ck;
    pair_size = Site_intern.sizes b.b_pairs;
    pair_chain = (if b.b_by_key then [||] else Array.map chain_of pair_ck);
    pair_totals = Array.sub b.b_totals 0 n;
    a_pair = Grow.take b.b_pair;
    a_life = Grow.take b.b_life;
  }

let profile ?(policy = Config.default.policy) (trace : Lp_trace.Trace.t) =
  Timings.time ~stage:"train/profile" (fun () ->
      let by_key = keyed_by_key policy in
      let lifetimes = Lifetimes.compute trace in
      let b = builder ~by_key trace.n_objects in
      Lp_trace.Trace.iter_allocs trace (fun ~obj ~size ~chain ~key ~tag:_ ->
          observe b
            ~ck:(if by_key then key else chain)
            ~size ~lifetime:lifetimes.lifetime.(obj)
            ~survived:lifetimes.survived.(obj) ~refs:trace.obj_refs.(obj));
      finish b ~chain_of:(Lp_trace.Trace.chain_of_alloc trace))

(* -- the per-config derivation --------------------------------------------------- *)

let derive ?(config = Config.default) p : site_table =
  if keyed_by_key config.policy <> p.by_key then
    invalid_arg "Train.derive: the profile was interned for another site policy";
  Timings.time ~stage:"train/derive" (fun () ->
      Timings.count "train.tables" 1;
      let n = Array.length p.pair_size in
      let threshold = config.short_lived_threshold in
      let short = Array.make n 0 in
      Array.iteri
        (fun i pair ->
          if p.a_life.(i) < threshold then short.(pair) <- short.(pair) + 1)
        p.a_pair;
      let table : site_table = Site.Table.create 256 in
      for pair = 0 to n - 1 do
        let size = p.pair_size.(pair) in
        let site =
          if p.by_key then
            Site.make config.policy ~raw_chain:[||] ~key:p.pair_ck.(pair) ~size
          else Site.make config.policy ~raw_chain:p.pair_chain.(pair) ~key:0 ~size
        in
        let stats =
          match Site.Table.find_opt table site with
          | Some s -> s
          | None ->
              let s = Site_stats.create () in
              Site.Table.add table site s;
              s
        in
        Site_stats.add stats p.pair_totals.(pair);
        (* all of a pair's objects share its size *)
        stats.short_count <- stats.short_count + short.(pair);
        stats.short_bytes <- stats.short_bytes + (short.(pair) * size)
      done;
      table)

let collect ?(config = Config.default) (trace : Lp_trace.Trace.t) : site_table =
  derive ~config (profile ~policy:config.policy trace)

type streamed = {
  table : site_table;
  end_clock : int;  (** total bytes allocated — [Trace.total_bytes] of the stream *)
  n_objects : int;
}

(* Streamed training as an engine domain.  Each range records the chain
   (or key) of its allocations next to a [Lifetimes.Fold]; the merge
   resolves the folds and profiles the allocations in global allocation
   order, reading reference counts and chains from the drained source
   (a sharded range's source carries the whole trace's tables), so the
   table equals [collect] on the materialized trace whatever the
   partition.  Memory scales with the allocation count, not the event
   count. *)
type range = {
  rc_ck : int array;  (* one per allocation, range event order *)
  rc_fold : Lifetimes.range_fold;
  rc_src : Lp_trace.Source.t;
}

type Absint.token += Range of range | Trained of streamed

let domain ?(config = Config.default) () : (module Absint.DOMAIN) =
  let by_key = keyed_by_key config.policy in
  (module struct
    let name = "train"
    let reads_heap = false

    let enter (ctx : Absint.ctx) =
      let en = ctx.Absint.cx_entry in
      let ck = Grow.create en.Absint.en_allocs in
      let fold = Lifetimes.Fold.create en in
      let step ev =
        (match ev with
        | Lp_trace.Event.Alloc { chain; key; _ } ->
            Grow.push ck (if by_key then key else chain)
        | _ -> ());
        Lifetimes.Fold.step fold ev
      in
      let finish () =
        Range
          {
            rc_ck = Grow.take ck;
            rc_fold = Lifetimes.Fold.finish fold;
            rc_src = ctx.Absint.cx_src;
          }
      in
      (step, finish)

    let merge tokens =
      let parts =
        List.map
          (function
            | Range r -> r | _ -> invalid_arg "Train.domain: foreign token")
          tokens
      in
      let src =
        match parts with
        | p :: _ -> p.rc_src
        | [] -> invalid_arg "Train.domain: empty partition"
      in
      let resolved = Lifetimes.resolve (List.map (fun p -> p.rc_fold) parts) in
      let p =
        Timings.time ~stage:"train/profile" (fun () ->
            let n_allocs =
              List.fold_left (fun n p -> n + Array.length p.rc_ck) 0 parts
            in
            let b = builder ~by_key n_allocs in
            List.iter
              (fun p ->
                Array.iteri
                  (fun i ck ->
                    let obj = p.rc_fold.Lifetimes.rf_a_obj.(i) in
                    observe b ~ck ~size:p.rc_fold.Lifetimes.rf_a_size.(i)
                      ~lifetime:(Lifetimes.resolved_lifetime resolved obj)
                      ~survived:(Lifetimes.resolved_survived resolved obj)
                      ~refs:(src.Lp_trace.Source.refs_of obj))
                  p.rc_ck)
              parts;
            finish b ~chain_of:src.Lp_trace.Source.chain)
      in
      Trained
        {
          table = derive ~config p;
          end_clock = Lifetimes.resolved_end_clock resolved;
          n_objects = src.Lp_trace.Source.n_objects_now ();
        }
  end)

let project = function
  | Trained s -> s
  | _ -> invalid_arg "Train.project: not a training token"

let collect_source ?config (src : Lp_trace.Source.t) : streamed =
  project
    (List.hd (Absint.run_source ~analyses:[ domain ?config () ] src))

let total_sites (table : site_table) = Site.Table.length table

let fold table init f = Site.Table.fold f table init
