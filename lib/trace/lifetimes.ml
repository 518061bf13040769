type t = {
  birth_clock : int array;
  lifetime : int array;
  survived : bool array;
  end_clock : int;
}

let compute (trace : Trace.t) =
  let n = trace.n_objects in
  let birth_clock = Array.make n 0 in
  let lifetime = Array.make n 0 in
  let survived = Array.make n true in
  let clock = ref 0 in
  Array.iter
    (function
      | Event.Alloc { obj; size; _ } ->
          birth_clock.(obj) <- !clock;
          clock := !clock + size
      | Event.Free { obj; _ } ->
          lifetime.(obj) <- !clock - birth_clock.(obj);
          survived.(obj) <- false
      | Event.Realloc { old_size; new_size; _ } ->
          (* a resize advances the allocation clock by the grown delta but
             keeps the object's birth: its lifetime spans its resizes *)
          clock := !clock + max 0 (new_size - old_size)
      | Event.Touch _ -> ())
    trace.events;
  let end_clock = !clock in
  for obj = 0 to n - 1 do
    if survived.(obj) then lifetime.(obj) <- end_clock - birth_clock.(obj)
  done;
  { birth_clock; lifetime; survived; end_clock }

let is_short_lived t ~threshold obj =
  (not t.survived.(obj)) && t.lifetime.(obj) < threshold

type summary = {
  hist : Lp_quantile.Histogram.t;
  short_bytes : int;
  total_alloc_bytes : int;
}

(* Streaming twin of [compute] + the byte-weighted fold the lifetimes CLI
   does on top of it: one pass over the source keeping per-object birth
   state and one (object, size) record per allocation, then a deferred
   fold in allocation order into the P² quantile histogram — the same
   observation sequence as the materialized path, so the histogram state
   (and its quartiles) is identical.  Memory scales with the allocation
   count, never the event count. *)
(* the byte-weighted observation of one allocation; one of no positive
   bytes carries no weight *)
let weigh hist ~threshold ~short ~total ~size ~survived lifetime =
  if size > 0 then begin
    Lp_quantile.Histogram.observe_weighted hist ~weight:size
      (float_of_int lifetime);
    total := !total + size;
    if (not survived) && lifetime < threshold then short := !short + size
  end

let summary_source ~threshold (src : Source.t) =
  let hint =
    match src.Source.n_objects_hint with Some n -> max 1 n | None -> 1024
  in
  let a_obj = Grow.create 1024 in
  let a_size = Grow.create 1024 in
  let n_allocs = ref 0 in
  let birth = Grow.create hint in
  let lifetime = Grow.create hint in
  let survived = Grow.create ~default:1 hint in
  let clock = ref 0 in
  Source.iter
    (function
      | Event.Alloc { obj; size; _ } ->
          Grow.push a_obj obj;
          Grow.push a_size size;
          incr n_allocs;
          Grow.set birth obj !clock;
          clock := !clock + size
      | Event.Free { obj; _ } ->
          Grow.set lifetime obj (!clock - Grow.get birth obj);
          Grow.set survived obj 0
      | Event.Realloc { old_size; new_size; _ } ->
          clock := !clock + max 0 (new_size - old_size)
      | Event.Touch _ -> ())
    src;
  let end_clock = !clock in
  let hist = Lp_quantile.Histogram.create () in
  let short = ref 0 and total = ref 0 in
  for i = 0 to !n_allocs - 1 do
    let obj = Grow.get a_obj i in
    let size = Grow.get a_size i in
    let surv = Grow.get survived obj = 1 in
    let lt =
      if surv then end_clock - Grow.get birth obj else Grow.get lifetime obj
    in
    weigh hist ~threshold ~short ~total ~size ~survived:surv lt
  done;
  { hist; short_bytes = !short; total_alloc_bytes = !total }

(* The range quarter of [summary_source]: replay one sharded chunk range
   seeded with its carry-in birth clocks and the absolute allocation
   clock, recording the range's allocations (in order) and, per object
   the range wrote, the range-final birth/lifetime/survival values.
   Applying the folds of a covering partition in range order ([resolve])
   reconstructs exactly the arrays the sequential pass ends with, because
   each fold's end values equal the sequential machine's state at that
   point of the stream: births are absolute clocks (seeded from
   [rg_start_clock]), a free's lifetime subtracts either an in-range
   birth or the carried pre-range birth clock, and later ranges overwrite
   earlier ones just as later events overwrite earlier ones. *)
type range_fold = {
  rf_a_obj : int array;
  rf_a_size : int array;
  rf_touched : int array;
  rf_born : int array;
  rf_birth : int array;
  rf_freed : int array;
  rf_life : int array;
  rf_end_clock : int;
}

(* Incremental form of the range fold: the same state machine exposed one
   event at a time, so passes that interleave their own per-event work
   with lifetime accumulation (the audit engine's analyses) drive a
   [Fold.t] from their own event loop instead of duplicating the clock
   and birth/free bookkeeping.  [fold_range] below is the one-shot loop
   over it. *)
module Fold = struct
  type t = {
    f_a_obj : Grow.t;
    f_a_size : Grow.t;
    f_birth : Grow.t;
    f_born : Grow.t;
    f_freed : Grow.t;
    f_life : Grow.t;
    f_touched : Grow.t;
    f_stamp : Grow.t;
    mutable f_n_allocs : int;
    mutable f_clock : int;
  }

  let create ?(hint = 64) ~start_clock ~carry () =
    let hint = max hint (Array.length carry) in
    let t =
      {
        f_a_obj = Grow.create 1024;
        f_a_size = Grow.create 1024;
        f_birth = Grow.create hint;
        f_born = Grow.create hint;
        f_freed = Grow.create hint;
        f_life = Grow.create hint;
        f_touched = Grow.create 256;
        f_stamp = Grow.create hint;
        f_n_allocs = 0;
        f_clock = start_clock;
      }
    in
    Array.iter
      (fun (cr : Binio.carry) ->
        Grow.set t.f_birth cr.Binio.cr_obj cr.Binio.cr_birth_clock)
      carry;
    t

  let clock t = t.f_clock
  let n_allocs t = t.f_n_allocs

  let touch t obj =
    if Grow.get t.f_stamp obj = 0 then begin
      Grow.set t.f_stamp obj 1;
      Grow.push t.f_touched obj
    end

  let step t = function
    | Event.Alloc { obj; size; _ } ->
        Grow.push t.f_a_obj obj;
        Grow.push t.f_a_size size;
        t.f_n_allocs <- t.f_n_allocs + 1;
        touch t obj;
        Grow.set t.f_born obj 1;
        Grow.set t.f_birth obj t.f_clock;
        t.f_clock <- t.f_clock + size
    | Event.Free { obj; _ } ->
        touch t obj;
        Grow.set t.f_freed obj 1;
        Grow.set t.f_life obj (t.f_clock - Grow.get t.f_birth obj)
    | Event.Realloc { old_size; new_size; _ } ->
        t.f_clock <- t.f_clock + max 0 (new_size - old_size)
    | Event.Touch _ -> ()

  let finish t =
    let touched = Grow.to_array t.f_touched in
    {
      rf_a_obj = Grow.to_array t.f_a_obj;
      rf_a_size = Grow.to_array t.f_a_size;
      rf_touched = touched;
      rf_born = Array.map (Grow.get t.f_born) touched;
      rf_birth = Array.map (Grow.get t.f_birth) touched;
      rf_freed = Array.map (Grow.get t.f_freed) touched;
      rf_life = Array.map (Grow.get t.f_life) touched;
      rf_end_clock = t.f_clock;
    }
end

let fold_range ?on_alloc (rg : Sharded.range) =
  let src = Sharded.range_source rg in
  let fold =
    Fold.create
      ~hint:(max 64 (Array.length rg.Sharded.rg_carry))
      ~start_clock:rg.Sharded.rg_start_clock ~carry:rg.Sharded.rg_carry ()
  in
  Source.iter
    (fun ev ->
      (match (ev, on_alloc) with
      | Event.Alloc { size; chain; key; _ }, Some f -> f src ~size ~chain ~key
      | _ -> ());
      Fold.step fold ev)
    src;
  Fold.finish fold

(* final per-object state after applying a covering partition's folds in
   range order; growable so corrupt traces with out-of-range object ids
   degrade exactly like the sequential pass instead of crashing *)
type resolved = {
  rv_birth : Grow.t;
  rv_life : Grow.t;
  rv_surv : Grow.t;
  rv_end_clock : int;
}

let resolve folds =
  let birth = Grow.create 1024 in
  let life = Grow.create 1024 in
  let surv = Grow.create ~default:1 1024 in
  let end_clock =
    List.fold_left (fun _ f -> f.rf_end_clock) 0 folds
  in
  List.iter
    (fun f ->
      Array.iteri
        (fun i obj ->
          if f.rf_born.(i) = 1 then Grow.set birth obj f.rf_birth.(i);
          if f.rf_freed.(i) = 1 then begin
            Grow.set life obj f.rf_life.(i);
            Grow.set surv obj 0
          end)
        f.rf_touched)
    folds;
  { rv_birth = birth; rv_life = life; rv_surv = surv; rv_end_clock = end_clock }

let resolved_survived r obj = Grow.get r.rv_surv obj = 1

let resolved_lifetime r obj =
  if resolved_survived r obj then r.rv_end_clock - Grow.get r.rv_birth obj
  else Grow.get r.rv_life obj

let resolved_end_clock r = r.rv_end_clock

let merge_summaries ~threshold folds =
  let r = resolve folds in
  let hist = Lp_quantile.Histogram.create () in
  let short = ref 0 and total = ref 0 in
  List.iter
    (fun f ->
      Array.iteri
        (fun i obj ->
          weigh hist ~threshold ~short ~total ~size:f.rf_a_size.(i)
            ~survived:(resolved_survived r obj) (resolved_lifetime r obj))
        f.rf_a_obj)
    folds;
  { hist; short_bytes = !short; total_alloc_bytes = !total }

let max_live (trace : Trace.t) =
  let sizes = Array.make trace.n_objects 0 in
  let live_bytes = ref 0 and live_objs = ref 0 in
  let max_bytes = ref 0 and max_objs = ref 0 in
  Array.iter
    (function
      | Event.Alloc { obj; size; _ } ->
          sizes.(obj) <- size;
          live_bytes := !live_bytes + size;
          incr live_objs;
          if !live_bytes > !max_bytes then max_bytes := !live_bytes;
          if !live_objs > !max_objs then max_objs := !live_objs
      | Event.Free { obj; _ } ->
          live_bytes := !live_bytes - sizes.(obj);
          decr live_objs
      | Event.Realloc { obj; new_size; _ } ->
          live_bytes := !live_bytes - sizes.(obj) + new_size;
          sizes.(obj) <- new_size;
          if !live_bytes > !max_bytes then max_bytes := !live_bytes
      | Event.Touch _ -> ())
    trace.events;
  (!max_bytes, !max_objs)
