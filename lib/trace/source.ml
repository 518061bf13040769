type counters = {
  instructions : int;
  calls : int;
  heap_refs : int;
  total_refs : int;
}

type t = {
  program : string;
  input : string;
  n_objects_hint : int option;
  n_events_hint : int option;
  funcs : Lp_callchain.Func.table;
  chain : int -> Lp_callchain.Chain.t;
  n_chains : unit -> int;
  tag : int -> string;
  n_tags : unit -> int;
  counters_now : unit -> counters option;
  refs_of : int -> int;
  n_objects_now : unit -> int;
  pull : int -> (Event.t -> unit) -> int;
  mutable streamed : int;
  mutable finished : bool;
}

let finish t =
  if not t.finished then begin
    t.finished <- true;
    Lp_obs.Timings.count "trace.events_streamed" t.streamed;
    Lp_obs.Timings.note_peak_heap ()
  end

(* [pull] hands fewer events than asked for only at exhaustion, so one
   call drains the source *)
let iter f t =
  let k = t.pull max_int f in
  t.streamed <- t.streamed + k;
  finish t

let fold f acc t =
  let acc = ref acc in
  iter (fun e -> acc := f !acc e) t;
  !acc

let next t =
  let got = ref None in
  if t.pull 1 (fun e -> got := Some e) = 1 then t.streamed <- t.streamed + 1
  else finish t;
  !got

(* the cursor of a producer that makes one event per call *)
let pull_of_next next n f =
  let k = ref 0 in
  while
    !k < n
    &&
    match next () with
    | Some e ->
        incr k;
        f e;
        true
    | None -> false
  do
    ()
  done;
  !k

let events_streamed t = t.streamed

let counters t = Option.get (t.counters_now ())

let n_objects t =
  if not t.finished then
    invalid_arg "Source.n_objects: source not yet drained";
  t.n_objects_now ()

(* -- in-memory trace ----------------------------------------------------------- *)

let of_trace (tr : Trace.t) =
  let pos = ref 0 in
  let counters =
    Some
      {
        instructions = tr.Trace.instructions;
        calls = tr.Trace.calls;
        heap_refs = tr.Trace.heap_refs;
        total_refs = tr.Trace.total_refs;
      }
  in
  {
    program = tr.Trace.program;
    input = tr.Trace.input;
    n_objects_hint = Some tr.Trace.n_objects;
    n_events_hint = Some (Array.length tr.Trace.events);
    funcs = tr.Trace.funcs;
    chain = (fun id -> tr.Trace.chains.(id));
    n_chains = (fun () -> Array.length tr.Trace.chains);
    tag = (fun id -> tr.Trace.tags.(id));
    n_tags = (fun () -> Array.length tr.Trace.tags);
    counters_now = (fun () -> counters);
    refs_of = (fun obj -> tr.Trace.obj_refs.(obj));
    n_objects_now = (fun () -> tr.Trace.n_objects);
    pull =
      (fun n f ->
        let k = min n (Array.length tr.Trace.events - !pos) in
        for _ = 1 to k do
          let e = tr.Trace.events.(!pos) in
          incr pos;
          f e
        done;
        k);
    streamed = 0;
    finished = false;
  }

(* -- binary: a linear decoder, or a window of a sharded (v3) index ------------ *)

let of_decoder d ~n_events =
  let h = Binio.header d in
  let counters =
    Some
      {
        instructions = h.Binio.instructions;
        calls = h.Binio.calls;
        heap_refs = h.Binio.heap_refs;
        total_refs = h.Binio.total_refs;
      }
  in
  {
    program = h.Binio.program;
    input = h.Binio.input;
    n_objects_hint = Some h.Binio.n_objects;
    n_events_hint = Some n_events;
    funcs = Binio.decoder_funcs d;
    chain = Binio.decoder_chain d;
    n_chains = (fun () -> Binio.decoder_n_chains d);
    tag = Binio.decoder_tag d;
    n_tags = (fun () -> Binio.decoder_n_tags d);
    counters_now = (fun () -> counters);
    refs_of = (fun obj -> h.Binio.obj_refs.(obj));
    n_objects_now = (fun () -> h.Binio.n_objects);
    pull = Binio.decode_batch d;
    streamed = 0;
    finished = false;
  }

let of_linear d = of_decoder d ~n_events:(Binio.header d).Binio.n_events

let of_indexed_window ix ~first ~count =
  of_decoder (Binio.window_decoder ix ~first ~count) ~n_events:count

let of_indexed ix =
  of_indexed_window ix ~first:0 ~count:(Binio.indexed_header ix).Binio.n_events

(* -- text stream --------------------------------------------------------------- *)

let of_text_stream (s : Textio.stream) =
  {
    program = s.Textio.s_program;
    input = s.Textio.s_input;
    n_objects_hint = None;
    n_events_hint = None;
    funcs = s.Textio.s_funcs;
    chain = s.Textio.s_chain;
    n_chains = s.Textio.s_n_chains;
    tag = s.Textio.s_tag;
    n_tags = s.Textio.s_n_tags;
    counters_now =
      (fun () ->
        let instructions, calls, heap_refs, total_refs =
          s.Textio.s_counters ()
        in
        Some { instructions; calls; heap_refs; total_refs });
    refs_of = s.Textio.s_refs;
    n_objects_now = s.Textio.s_n_objects;
    pull = pull_of_next s.Textio.s_next;
    streamed = 0;
    finished = false;
  }

let lines_of_string s =
  let pos = ref 0 in
  let len = String.length s in
  fun () ->
    if !pos >= len then None
    else begin
      let stop =
        match String.index_from_opt s !pos '\n' with
        | Some i -> i
        | None -> len
      in
      let line = String.sub s !pos (stop - !pos) in
      pos := stop + 1;
      Some line
    end

let of_string ?name s =
  match Io.detect s with
  | Io.Binary -> of_linear (Binio.decoder ?name (Binio.big_of_string s))
  | Io.Text -> of_text_stream (Textio.stream ?name (lines_of_string s))

(* -- file ---------------------------------------------------------------------- *)

let of_file path =
  match Io.map_file path with
  | Some buf
    when Bigarray.Array1.dim buf >= 4
         && String.equal (String.init 4 (Bigarray.Array1.get buf)) Binio.magic
    ->
      Lp_obs.Timings.count "trace.bytes_read" (Bigarray.Array1.dim buf);
      (* a sharded (v3) map opens through its index; v1/v2 stream linearly *)
      if
        Bigarray.Array1.dim buf >= 5
        && Char.code (Bigarray.Array1.get buf 4) = Binio.version_sharded
      then of_indexed (Binio.index ~name:path buf)
      else of_linear (Binio.decoder ~name:path buf)
  | _ -> (
      match Io.format_for_path path with
      | Io.Binary ->
          (* an .lpt we could not mmap: read it in and stream the copy *)
          let s = In_channel.with_open_bin path In_channel.input_all in
          Lp_obs.Timings.count "trace.bytes_read" (String.length s);
          of_string ~name:path s
      | Io.Text ->
          let ic = In_channel.open_bin path in
          let closed = ref false in
          let bytes = ref 0 in
          let close () =
            if not !closed then begin
              closed := true;
              In_channel.close ic;
              Lp_obs.Timings.count "trace.bytes_read" !bytes
            end
          in
          let next_line () =
            if !closed then None
            else
              match In_channel.input_line ic with
              | Some l ->
                  bytes := !bytes + String.length l + 1;
                  Some l
              | None ->
                  close ();
                  None
          in
          let src =
            try of_text_stream (Textio.stream ~name:path next_line)
            with e ->
              close ();
              raise e
          in
          let inner = src.pull in
          {
            src with
            pull =
              (fun n f ->
                let k = inner n f in
                if k < n then close ();
                k);
          })
