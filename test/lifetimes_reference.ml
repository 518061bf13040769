(* The PRE-FOLD streamed lifetime summary, retained verbatim as the
   reference implementation for the lifetime-summary equivalence
   property in test_sharded.ml.

   This is the [Lifetimes.summary_source] lib/trace/lifetimes.ml shipped
   before it became the one-range case of the shared lifetime fold: its
   own per-object birth/lifetime/survival tables and per-allocation
   records, then a deferred byte-weighted fold in allocation order.  The
   fold-based summary (streamed, and merged over any covering partition
   of a sharded trace) must produce the identical summary — the same
   histogram state bit for bit — for any trace, including ones with
   resizes, out-of-order object ids and ids reused after their free;
   qcheck drives both.

   Do not "clean up" or optimize this module: its value is that it stays
   frozen while the production fold evolves. *)

module Source = Lp_trace.Source
module Event = Lp_trace.Event
module Grow = Lp_trace.Grow

type summary = Lp_trace.Lifetimes.summary = {
  hist : Lp_quantile.Histogram.t;
  short_bytes : int;
  total_alloc_bytes : int;
}

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
