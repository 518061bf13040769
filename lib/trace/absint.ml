(* The fold engine: one abstract-interpretation pass over a trace
   stream, shared by every streamed and sharded analysis.

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
   order, deferred observations replayed in global allocation order,
   later ranges' per-object state overlaid on earlier ones'). *)

module Chain = Lp_callchain.Chain

type token = ..

type entry = {
  en_first_event : int;
  en_start_clock : int;
  en_live_bytes : int;
  en_live_objs : int;
  en_next_obj : int;
  en_carry : Binio.carry array;
  en_objects : int;
  en_allocs : int;
}

(* A whole source is sized from its header totals: the object count for
   per-object tables and, for per-allocation columns, the object count
   capped by the event count.  Both are exact for a whole .lpt trace
   that allocates each object once; a text stream has neither and
   starts at 1024. *)
let whole (src : Source.t) =
  let objects =
    match src.Source.n_objects_hint with Some n -> n | None -> 1024
  in
  {
    en_first_event = 0;
    en_start_clock = 0;
    en_live_bytes = 0;
    en_live_objs = 0;
    en_next_obj = 0;
    en_carry = [||];
    en_objects = objects;
    en_allocs =
      (match src.Source.n_events_hint with
      | Some e -> min e objects
      | None -> objects);
  }

(* A range's source still reports the whole trace's object count, so a
   range is sized from its own footer ids instead: every object it
   names lies below its exit id, and it allocates the ids between its
   entry and exit ids. *)
let entry_of_range (rg : Sharded.range) =
  {
    en_first_event = rg.Sharded.rg_first_event;
    en_start_clock = rg.Sharded.rg_start_clock;
    en_live_bytes = rg.Sharded.rg_live_bytes;
    en_live_objs = rg.Sharded.rg_live_objs;
    en_next_obj = rg.Sharded.rg_next_obj;
    en_carry = rg.Sharded.rg_carry;
    en_objects = rg.Sharded.rg_exit_obj;
    en_allocs = max 0 (rg.Sharded.rg_exit_obj - rg.Sharded.rg_next_obj);
  }

type ctx = {
  mutable cx_event : int;
  mutable cx_clock : int;
  mutable cx_live_bytes : int;
  mutable cx_live_objs : int;
  cx_src : Source.t;
  cx_entry : entry;
  mutable cx_size : int array;
  mutable cx_chain : int array;
}

(* the two per-object tables are the engine's own arrays, indexed in
   place: slots past the highest id written hold 0 and -1 *)
let cur_size ctx obj =
  if obj >= 0 && obj < Array.length ctx.cx_size then
    Array.unsafe_get ctx.cx_size obj
  else 0

let birth_chain ctx obj =
  if obj >= 0 && obj < Array.length ctx.cx_chain then
    Array.unsafe_get ctx.cx_chain obj
  else -1

let born ctx obj = birth_chain ctx obj >= 0
let birth_chains ctx = ctx.cx_chain

let widen ctx obj =
  ctx.cx_size <- Grow.widen ctx.cx_size ~default:0 obj;
  ctx.cx_chain <- Grow.widen ctx.cx_chain ~default:(-1) obj

module type DOMAIN = sig
  val name : string
  val reads_heap : bool
  val enter : ctx -> (Event.t -> unit) * (unit -> token)
  val merge : token list -> token
end

(* -- the concrete interpreter ----------------------------------------------------- *)

(* The live-heap state costs two words per object, so a pass keeps it
   only when one of its domains reads it; otherwise the tables stay
   empty and the live bytes stay at their entry value. *)
let run_over analyses (src : Source.t) (en : entry) =
  let heap = List.exists (fun (module D : DOMAIN) -> D.reads_heap) analyses in
  let objects = if heap then max 16 en.en_objects else 0 in
  let ctx =
    {
      cx_event = en.en_first_event - 1;
      cx_clock = en.en_start_clock;
      cx_live_bytes = en.en_live_bytes;
      cx_live_objs = en.en_live_objs;
      cx_src = src;
      cx_entry = en;
      cx_size = Array.make objects 0;
      cx_chain = Array.make objects (-1);
    }
  in
  if heap then
    Array.iter
      (fun (cr : Binio.carry) ->
        let obj = cr.Binio.cr_obj in
        if obj < 0 || obj >= Array.length ctx.cx_size then widen ctx obj;
        ctx.cx_size.(obj) <- cr.Binio.cr_size;
        ctx.cx_chain.(obj) <- cr.Binio.cr_alloc_chain)
      en.en_carry;
  let entered = List.map (fun (module D : DOMAIN) -> D.enter ctx) analyses in
  let steps = Array.of_list (List.map fst entered) in
  let n_steps = Array.length steps in
  Source.iter
    (fun ev ->
      ctx.cx_event <- ctx.cx_event + 1;
      (* domains observe the pre-event context *)
      for i = 0 to n_steps - 1 do
        (Array.unsafe_get steps i) ev
      done;
      match ev with
      | Event.Alloc { obj; size; chain; _ } ->
          if heap then begin
            if obj >= 0 then begin
              if obj >= Array.length ctx.cx_size then widen ctx obj;
              Array.unsafe_set ctx.cx_size obj size;
              Array.unsafe_set ctx.cx_chain obj chain
            end;
            ctx.cx_live_bytes <- ctx.cx_live_bytes + size
          end;
          ctx.cx_clock <- ctx.cx_clock + size;
          ctx.cx_live_objs <- ctx.cx_live_objs + 1
      | Event.Free { obj; _ } ->
          if heap && obj >= 0 then
            ctx.cx_live_bytes <- ctx.cx_live_bytes - cur_size ctx obj;
          ctx.cx_live_objs <- ctx.cx_live_objs - 1
      | Event.Realloc { obj; old_size; new_size; _ } ->
          if heap && obj >= 0 then begin
            ctx.cx_live_bytes <- ctx.cx_live_bytes - cur_size ctx obj + new_size;
            if obj >= Array.length ctx.cx_size then widen ctx obj;
            Array.unsafe_set ctx.cx_size obj new_size
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
  merge_ranges ~analyses [ run_over analyses src (whole src) ]

(* -- chain rendering for reports -------------------------------------------------- *)

(* the tables are read at call time: a streaming source's grow as it
   goes, and every id an event carried is resolvable by then *)
let known (src : Source.t) chain_id =
  chain_id >= 0 && chain_id < src.Source.n_chains ()

let chain_depth src chain_id =
  if known src chain_id then Array.length (src.Source.chain chain_id) else 0

let render_chain (src : Source.t) chain_id =
  if not (known src chain_id) then Printf.sprintf "chain %d" chain_id
  else
    match Chain.names (src.Source.funcs ()) (src.Source.chain chain_id) with
    | [] -> "<empty chain>"
    | names ->
        let shown = List.filteri (fun i _ -> i < 3) names in
        String.concat "<-" shown ^ if List.length names > 3 then "<-…" else ""
