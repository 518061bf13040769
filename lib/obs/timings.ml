let src = Logs.Src.create "lpalloc.obs" ~doc:"Trace-pipeline stage timings"

module Log = (val Logs.src_log src : Logs.LOG)

let on = Atomic.make false
let set_enabled b = Atomic.set on b
let enabled () = Atomic.get on
let now () = Unix.gettimeofday ()

type stage = { name : string; calls : int; seconds : float; items : int }

(* One mutex guards both tables: recording happens once per pipeline stage
   (not per event), so contention is negligible. *)
let lock = Mutex.create ()
let stage_tbl : (string, stage) Hashtbl.t = Hashtbl.create 16
let counter_tbl : (string, int) Hashtbl.t = Hashtbl.create 16

let rate items seconds =
  if seconds <= 0. || items = 0 then "" else Printf.sprintf " (%.3g items/s)" (float_of_int items /. seconds)

let record ~stage ?(items = 0) seconds =
  if enabled () then begin
    Mutex.protect lock (fun () ->
        let merged =
          match Hashtbl.find_opt stage_tbl stage with
          | Some s ->
              {
                s with
                calls = s.calls + 1;
                seconds = s.seconds +. seconds;
                items = s.items + items;
              }
          | None -> { name = stage; calls = 1; seconds; items }
        in
        Hashtbl.replace stage_tbl stage merged);
    Log.debug (fun m -> m "%s: %.4fs%s" stage seconds (rate items seconds))
  end

let time ~stage ?items f =
  if not (enabled ()) then f ()
  else begin
    let t0 = now () in
    let finally () = record ~stage ?items (now () -. t0) in
    Fun.protect ~finally f
  end

let count name n =
  if enabled () then
    Mutex.protect lock (fun () ->
        Hashtbl.replace counter_tbl name
          (n + Option.value ~default:0 (Hashtbl.find_opt counter_tbl name)))

let count_max name n =
  if enabled () then
    Mutex.protect lock (fun () ->
        Hashtbl.replace counter_tbl name
          (max n (Option.value ~default:min_int (Hashtbl.find_opt counter_tbl name))))

(* [Gc.quick_stat] reports heap words only once a major cycle has
   finished, so a short run reads 0 there.  [Gc.stat] walks the whole
   heap and finishes a cycle, which is cheap only while the heap is that
   young; it is read on that branch alone. *)
let note_peak_heap () =
  if enabled () then
    let top = (Gc.quick_stat ()).Gc.top_heap_words in
    count_max "trace.peak_resident_words"
      (if top > 0 then top else (Gc.stat ()).Gc.top_heap_words)

let stages () =
  Mutex.protect lock (fun () -> Hashtbl.fold (fun _ s acc -> s :: acc) stage_tbl [])
  |> List.sort (fun a b -> String.compare a.name b.name)

let counters () =
  Mutex.protect lock (fun () ->
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) counter_tbl [])
  |> List.sort compare

let reset () =
  Mutex.protect lock (fun () ->
      Hashtbl.reset stage_tbl;
      Hashtbl.reset counter_tbl)

let pp_report ppf () =
  let ss = stages () and cs = counters () in
  if ss = [] && cs = [] then Format.fprintf ppf "timings: nothing recorded@."
  else begin
    Format.fprintf ppf "timings:@.";
    Format.fprintf ppf "  %-40s %6s %10s %12s %12s@." "stage" "calls" "seconds"
      "items" "items/s";
    List.iter
      (fun s ->
        let per_s =
          if s.seconds > 0. && s.items > 0 then
            Printf.sprintf "%.3g" (float_of_int s.items /. s.seconds)
          else "-"
        in
        Format.fprintf ppf "  %-40s %6d %10.4f %12d %12s@." s.name s.calls
          s.seconds s.items per_s)
      ss;
    if cs <> [] then begin
      Format.fprintf ppf "counters:@.";
      List.iter (fun (k, v) -> Format.fprintf ppf "  %-40s %12d@." k v) cs
    end
  end
