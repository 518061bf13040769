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

(* the byte-weighted observation of one allocation; one of no positive
   bytes carries no weight *)
let weigh hist ~threshold ~short ~total ~size ~survived lifetime =
  if size > 0 then begin
    Lp_quantile.Histogram.observe_weighted hist ~weight:size
      (float_of_int lifetime);
    total := !total + size;
    if (not survived) && lifetime < threshold then short := !short + size
  end

(* The streamed twin of [compute]: replay one stretch of a trace — the
   whole stream, or one sharded chunk range seeded with its carry-in
   birth clocks and the absolute allocation clock — recording the
   stretch's allocations (in order) and, per object id, the
   stretch-final birth clock and lifetime plus one byte saying whether
   the stretch allocated and/or freed the object.  Applying the folds of
   a covering partition in range order ([resolve]) reconstructs exactly
   the state the sequential machine ends with, because each fold's end
   values equal that machine's state at that point of the stream:
   births are absolute clocks, a free's lifetime subtracts either an
   in-range birth or the carried pre-range birth clock, and later ranges
   overwrite earlier ones just as later events overwrite earlier ones.
   The fold is the [domain] below, and the whole stream is the engine's
   one-range partition, so [summary_source] is [merge_summaries] of a
   single fold. *)
type range_fold = {
  rf_a_obj : int array;
  rf_a_size : int array;
  rf_birth : int array;
  rf_life : int array;
  rf_flags : Bytes.t;
  rf_end_clock : int;
}

let born = 1
let freed = 2

module Fold = struct
  type t = {
    f_a_obj : Grow.t;
    f_a_size : Grow.t;
    f_birth : Grow.t;
    f_life : Grow.t;
    mutable f_flags : Bytes.t;
    mutable f_clock : int;
  }

  let create (en : Absint.entry) =
    let objects = max 16 en.Absint.en_objects in
    let t =
      {
        f_a_obj = Grow.create en.Absint.en_allocs;
        f_a_size = Grow.create en.Absint.en_allocs;
        f_birth = Grow.create objects;
        f_life = Grow.create objects;
        f_flags = Bytes.make objects '\000';
        f_clock = en.Absint.en_start_clock;
      }
    in
    Array.iter
      (fun (cr : Binio.carry) ->
        Grow.set t.f_birth cr.Binio.cr_obj cr.Binio.cr_birth_clock)
      en.Absint.en_carry;
    t

  (* set a bit of an object's flag byte, growing the bytes by doubling *)
  let mark t obj bit =
    if obj < 0 || obj >= Bytes.length t.f_flags then
      t.f_flags <- Grow.widen_bytes t.f_flags obj;
    Bytes.unsafe_set t.f_flags obj
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.f_flags obj) lor bit))

  let step t = function
    | Event.Alloc { obj; size; _ } ->
        Grow.push t.f_a_obj obj;
        Grow.push t.f_a_size size;
        Grow.set t.f_birth obj t.f_clock;
        mark t obj born;
        t.f_clock <- t.f_clock + size
    | Event.Free { obj; _ } ->
        Grow.set t.f_life obj (t.f_clock - Grow.get t.f_birth obj);
        mark t obj freed
    | Event.Realloc { old_size; new_size; _ } ->
        (* a resize advances the clock by the grown delta but keeps the
           object's birth: its lifetime spans its resizes *)
        t.f_clock <- t.f_clock + max 0 (new_size - old_size)
    | Event.Touch _ -> ()

  (* the per-object tables end at the highest id written, which every
     flag lies below; a table pre-sized exactly is handed over as is *)
  let finish t =
    let n = max (Grow.length t.f_birth) (Grow.length t.f_life) in
    Grow.ensure t.f_birth n;
    Grow.ensure t.f_life n;
    let flags =
      if Bytes.length t.f_flags = n then t.f_flags
      else begin
        let b = Bytes.make n '\000' in
        Bytes.blit t.f_flags 0 b 0 (min n (Bytes.length t.f_flags));
        b
      end
    in
    {
      rf_a_obj = Grow.take t.f_a_obj;
      rf_a_size = Grow.take t.f_a_size;
      rf_birth = Grow.take t.f_birth;
      rf_life = Grow.take t.f_life;
      rf_flags = flags;
      rf_end_clock = t.f_clock;
    }
end

(* the final per-object state of a covering partition, in a fold's
   shape: a single fold (every sequential pass) already is it and is read
   in place; several are applied in range order onto tables sized to the
   largest *)
type resolved = range_fold

let resolve = function
  | [ f ] -> f
  | folds ->
      let n =
        List.fold_left (fun n f -> max n (Bytes.length f.rf_flags)) 0 folds
      in
      let birth = Array.make n 0 and life = Array.make n 0 in
      let flags = Bytes.make n '\000' in
      List.iter
        (fun f ->
          Bytes.iteri
            (fun obj c ->
              let fl = Char.code c in
              if fl <> 0 then begin
                if fl land born <> 0 then birth.(obj) <- f.rf_birth.(obj);
                if fl land freed <> 0 then life.(obj) <- f.rf_life.(obj);
                Bytes.set flags obj
                  (Char.unsafe_chr (Char.code (Bytes.get flags obj) lor fl))
              end)
            f.rf_flags)
        folds;
      {
        rf_a_obj = [||];
        rf_a_size = [||];
        rf_birth = birth;
        rf_life = life;
        rf_flags = flags;
        rf_end_clock = List.fold_left (fun _ f -> f.rf_end_clock) 0 folds;
      }

(* every allocation record's object lies below its fold's table length *)
let resolved_survived r obj =
  Char.code (Bytes.get r.rf_flags obj) land freed = 0

let resolved_lifetime r obj =
  if resolved_survived r obj then r.rf_end_clock - r.rf_birth.(obj)
  else r.rf_life.(obj)

let resolved_end_clock r = r.rf_end_clock

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
  (* the merge outlives the drained stream: note the pass's peak again *)
  Lp_obs.Timings.note_peak_heap ();
  { hist; short_bytes = !short; total_alloc_bytes = !total }

type Absint.token += Range of range_fold | Summary of summary

let domain ~threshold : (module Absint.DOMAIN) =
  (module struct
    let name = "lifetimes"
    let reads_heap = false

    let enter (ctx : Absint.ctx) =
      let fold = Fold.create ctx.Absint.cx_entry in
      (Fold.step fold, fun () -> Range (Fold.finish fold))

    let merge tokens =
      Summary
        (merge_summaries ~threshold
           (List.map
              (function
                | Range f -> f
                | _ -> invalid_arg "Lifetimes.domain: foreign token")
              tokens))
  end)

let project = function
  | Summary s -> s
  | _ -> invalid_arg "Lifetimes.project: not a lifetimes token"

let summary_source ~threshold src =
  project (List.hd (Absint.run_source ~analyses:[ domain ~threshold ] src))

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
