type format = Text | Binary

let format_for_path path = if Filename.check_suffix path ".lpt" then Binary else Text

let detect s =
  if String.length s >= 4 && String.equal (String.sub s 0 4) Binio.magic then
    Binary
  else Text

let of_string ?name s =
  let t =
    match detect s with
    | Binary -> Binio.of_string ?name s
    | Text -> Textio.of_string ?name s
  in
  (* one full materializing decode; the decode-once/replay-many engine's
     proof obligation is that a candidate sweep moves this exactly once *)
  Lp_obs.Timings.count "trace.decodes" 1;
  t

let input ?name ic = of_string ?name (In_channel.input_all ic)

(* memory-map the file for the zero-copy binary decode path; any failure
   (empty file, exotic filesystem, no mmap) falls back to reading it in *)
let map_file path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> None
  | fd -> (
      match
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            Bigarray.array1_of_genarray
              (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| -1 |]))
      with
      | buf -> Some buf
      | exception _ -> None)

let contains_substring ~sub s =
  let ls = String.length s and lsub = String.length sub in
  let rec scan i =
    i + lsub <= ls && (String.equal (String.sub s i lsub) sub || scan (i + 1))
  in
  scan 0

(* The codecs already stamp failures with the source name and byte/line
   offset; this backstop guarantees no loader error escapes without at
   least the file name (e.g. a [Failure] from a layer below the codecs). *)
let with_error_context path f =
  try f () with
  | Failure msg when not (contains_substring ~sub:path msg) ->
      failwith (Printf.sprintf "%s: %s" path msg)

let read_file path =
  let t0 = Lp_obs.Timings.now () in
  let bytes_read = ref 0 in
  let t =
    with_error_context path (fun () ->
        match map_file path with
        | Some buf
          when Bigarray.Array1.dim buf >= 4
               && String.equal
                    (String.init 4 (Bigarray.Array1.get buf))
                    Binio.magic ->
            bytes_read := Bigarray.Array1.dim buf;
            let t = Binio.of_bigarray ~name:path buf in
            Lp_obs.Timings.count "trace.decodes" 1;
            t
        | _ ->
            let s = In_channel.with_open_bin path In_channel.input_all in
            bytes_read := String.length s;
            of_string ~name:path s)
  in
  Lp_obs.Timings.record
    ~stage:("load/" ^ Filename.basename path)
    ~items:(Array.length t.Trace.events)
    (Lp_obs.Timings.now () -. t0);
  Lp_obs.Timings.count "trace.bytes_read" !bytes_read;
  Lp_obs.Timings.count "trace.events_read" (Array.length t.Trace.events);
  Lp_obs.Timings.note_peak_heap ();
  t

(* The binary writers pick the lowest version that can express the
   trace: realloc-bearing traces need the sharded v3 layout (v1/v2 have
   no realloc opcode and their writers refuse), realloc-free traces stay
   byte-identical to older writers. *)
let to_string_for ~name ~format t =
  match format with
  | Binary ->
      if Trace.has_realloc t then Binio.to_string_v3 ~name t
      else Binio.to_string ~name t
  | Text -> Textio.to_string t

let write_file ?format path t =
  let format = match format with Some f -> f | None -> format_for_path path in
  let t0 = Lp_obs.Timings.now () in
  let s = to_string_for ~name:path ~format t in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s);
  Lp_obs.Timings.record
    ~stage:("store/" ^ Filename.basename path)
    ~items:(Array.length t.Trace.events)
    (Lp_obs.Timings.now () -. t0);
  Lp_obs.Timings.count "trace.bytes_written" (String.length s)

let output ?(format = Text) oc t =
  match format with
  | Binary -> if Trace.has_realloc t then Binio.output_v3 oc t else Binio.output oc t
  | Text -> Textio.output oc t
