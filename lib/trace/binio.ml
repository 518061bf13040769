let magic = "LPTB"
let version = 1
let version_sized = 2
let version_sharded = 3
let end_marker = '\xE5'
let default_chunk_events = 1 lsl 18

(* Compact opcode space (see binio.mli for the layout):
   0x00/0x01 long allocs, 0x02 long free, 0x03 long touch,
   alloc_base..0x3F alloc at small site id, 0x40..0x7F free with small
   delta, 0x80..0xFF touch with 3-bit zigzag delta and 4-bit count.
   Version 1 packs allocs from 0x04.  Version 2 — emitted only when the
   trace contains declared (sized-deallocation) free sizes — shifts the
   packed-alloc base to 0x06 to make room for opcode 0x05, sized free
   (0x04 stays reserved); version-1 files keep their original byte
   layout.  Version 3 claims the reserved 0x04 for realloc — v2 decoders
   keep failing on it, and the v1/v2 writer refuses realloc-bearing
   traces outright, so realloc never leaks into a version that cannot
   express it. *)
let alloc_base_of_version v = if v >= version_sized then 0x06 else 0x04
let sized_free_op = 0x05
let realloc_op = 0x04

(* Zigzag is a bijection on the full native int range: both shifts are
   width-relative ([lsl 1] deliberately wraps through the sign bit, which
   is undone by the matching [lsr 1]), so even [min_int]/[max_int] —
   e.g. extreme touch deltas near the int boundaries — round-trip. *)
let zigzag n = (n lsl 1) lxor (n asr (Sys.int_size - 1))
let unzigzag v = (v lsr 1) lxor (-(v land 1))

(* -- encoding ------------------------------------------------------------------ *)

(* Emit the raw bit pattern of [n] as a varint, treating it as an
   unsigned [Sys.int_size]-bit quantity: the [lsr] loop terminates even
   when [n] is negative, which is how zigzagged values with the top bit
   set (|delta| >= 2^(int_size-2)) are carried. *)
let add_varint_bits b n =
  let rec go n =
    if n >= 0 && n < 0x80 then Buffer.add_char b (Char.unsafe_chr n)
    else begin
      Buffer.add_char b (Char.unsafe_chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

let add_varint b n =
  if n < 0 then invalid_arg "Binio.output: negative value in unsigned field";
  add_varint_bits b n

let add_zigzag b n = add_varint_bits b (zigzag n)

let add_string b s =
  add_varint b (String.length s);
  Buffer.add_string b s

(* Global interning of (chain, key, tag) triples in first-use order —
   shared by every file version, so the site table round-trips across
   version conversions byte-identically. *)
type site_interner = {
  si_ids : (int * int * int, int) Hashtbl.t;
  mutable si_defs : (int * int * int) list;  (* reversed *)
  mutable si_n : int;
}

let site_interner () = { si_ids = Hashtbl.create 64; si_defs = []; si_n = 0 }

let intern_site si chain key tag =
  let triple = (chain, key, tag) in
  match Hashtbl.find_opt si.si_ids triple with
  | Some id -> id
  | None ->
      let id = si.si_n in
      si.si_n <- id + 1;
      Hashtbl.add si.si_ids triple id;
      si.si_defs <- triple :: si.si_defs;
      id

(* Per-event encoding, shared by the whole-stream (v1/v2) and per-chunk
   (v3) writers: the delta state lives in the caller's refs, which v3
   resets at every chunk boundary so chunks decode standalone. *)
let encode_event ~alloc_base b si ~prev_alloc ~prev_free ~prev_touch
    ~prev_realloc = function
  | Event.Alloc { obj; size; chain; key; tag } ->
      let site = intern_site si chain key tag in
      let max_packed_site = 0x40 - alloc_base in
      if obj = !prev_alloc + 1 then
        if site < max_packed_site then
          Buffer.add_char b (Char.unsafe_chr (alloc_base + site))
        else begin
          Buffer.add_char b '\x00';
          add_varint b site
        end
      else begin
        Buffer.add_char b '\x01';
        add_varint b obj;
        add_varint b site
      end;
      prev_alloc := obj;
      add_varint b size
  | Event.Free { obj; size } ->
      (if size >= 0 then begin
         (* sized free: rare (external traces only), so it gets the one
            long opcode rather than space in the packed ranges *)
         Buffer.add_char b (Char.unsafe_chr sized_free_op);
         add_zigzag b (obj - !prev_free);
         add_varint b size
       end
       else
         (* [z] can be negative (wrapped zigzag of an extreme delta),
            so the packed test must check the sign too *)
         let z = zigzag (obj - !prev_free) in
         if z >= 0 && z < 0x40 then
           Buffer.add_char b (Char.unsafe_chr (0x40 lor z))
         else begin
           Buffer.add_char b '\x02';
           add_varint_bits b z
         end);
      prev_free := obj
  | Event.Realloc { obj; old_size; new_size; chain; key; tag } ->
      (* only the v3 writer reaches this arm: [to_buffer] rejects
         realloc-bearing traces before encoding *)
      let site = intern_site si chain key tag in
      Buffer.add_char b (Char.unsafe_chr realloc_op);
      add_zigzag b (obj - !prev_realloc);
      prev_realloc := obj;
      add_varint b site;
      add_varint b old_size;
      add_varint b new_size
  | Event.Touch { obj; count } ->
      let z = zigzag (obj - !prev_touch) in
      if z >= 0 && z < 8 && count >= 1 && count <= 16 then
        Buffer.add_char b (Char.unsafe_chr (0x80 lor (z lsl 4) lor (count - 1)))
      else begin
        Buffer.add_char b '\x03';
        add_varint_bits b z;
        add_varint b count
      end;
      prev_touch := obj

(* Events go to a side buffer first: encoding discovers the allocation-site
   table, which must precede them in the stream. *)
let encode_events ~file_version (t : Trace.t) =
  let alloc_base = alloc_base_of_version file_version in
  let b = Buffer.create 65536 in
  let si = site_interner () in
  let prev_alloc = ref (-1)
  and prev_free = ref 0
  and prev_touch = ref 0
  and prev_realloc = ref 0 in
  Array.iter
    (encode_event ~alloc_base b si ~prev_alloc ~prev_free ~prev_touch
       ~prev_realloc)
    t.events;
  (Array.of_list (List.rev si.si_defs), b)

(* [.lpt] stores sizes, counts and ids unsigned, so a trace carrying a
   negative one (a corrupt trace the text format parses) cannot be
   encoded.  [add_varint] refuses it with a bare [Invalid_argument]; a
   writer that hits one scans the trace for the culprit and fails saying
   which file, event, object and field.  Scanning only then keeps the
   check off the encoding path. *)
let check_unsigned ~name (t : Trace.t) =
  let fail where field v =
    failwith
      (Printf.sprintf
         "Binio.output: %s: %s: negative %s %d; .lpt stores it unsigned" name
         where field v)
  in
  List.iter
    (fun (field, v) -> if v < 0 then fail "header" field v)
    [
      ("instructions", t.instructions);
      ("calls", t.calls);
      ("heap_refs", t.heap_refs);
      ("total_refs", t.total_refs);
    ];
  Array.iteri
    (fun obj refs ->
      if refs < 0 then fail (Printf.sprintf "object %d" obj) "refs" refs)
    t.obj_refs;
  let check i obj field v =
    if v < 0 then fail (Printf.sprintf "event %d: object %d" i obj) field v
  in
  Array.iteri
    (fun i ev ->
      match ev with
      | Event.Alloc { obj; size; chain; _ } ->
          check i obj "object id" obj;
          check i obj "size" size;
          check i obj "chain id" chain
      | Event.Realloc { obj; old_size; new_size; chain; _ } ->
          check i obj "old size" old_size;
          check i obj "new size" new_size;
          check i obj "chain id" chain
      | Event.Touch { obj; count } -> check i obj "touch count" count
      | Event.Free _ -> ())
    t.events

let locating_negatives ~name t encode =
  try encode ()
  with Invalid_argument _ as e ->
    let bt = Printexc.get_raw_backtrace () in
    check_unsigned ~name t;
    Printexc.raise_with_backtrace e bt

let to_buffer ?(name = "<trace>") b (t : Trace.t) =
  locating_negatives ~name t @@ fun () ->
  if Array.exists (function Event.Realloc _ -> true | _ -> false) t.events then
    invalid_arg
      "Binio.output: realloc events require the version-3 writer (to_buffer_v3)";
  (* version 2 only when needed, so unsized traces stay byte-identical to
     version-1 writers *)
  let file_version =
    if
      Array.exists
        (function Event.Free { size; _ } -> size >= 0 | _ -> false)
        t.events
    then version_sized
    else version
  in
  let site_defs, events = encode_events ~file_version t in
  Buffer.add_string b magic;
  Buffer.add_char b (Char.chr file_version);
  add_string b t.program;
  add_string b t.input;
  let names = Lp_callchain.Func.names t.funcs in
  add_varint b (Array.length names);
  Array.iter (add_string b) names;
  add_varint b (Array.length t.chains);
  Array.iter
    (fun chain ->
      add_varint b (Array.length chain);
      Array.iter (add_varint b) chain)
    t.chains;
  add_varint b (Array.length t.tags);
  Array.iter (add_string b) t.tags;
  add_varint b (Array.length site_defs);
  Array.iter
    (fun (chain, key, tag) ->
      add_varint b chain;
      add_zigzag b key;
      add_zigzag b tag)
    site_defs;
  add_varint b t.instructions;
  add_varint b t.calls;
  add_varint b t.heap_refs;
  add_varint b t.total_refs;
  add_varint b t.n_objects;
  Array.iter (add_varint b) t.obj_refs;
  add_varint b (Array.length t.events);
  Buffer.add_buffer b events;
  Buffer.add_char b end_marker

let to_string ?name t =
  let b = Buffer.create 65536 in
  to_buffer ?name b t;
  Buffer.contents b

let output ?name oc t =
  let b = Buffer.create 65536 in
  to_buffer ?name b t;
  Buffer.output_buffer oc b

(* -- version 3: the sharded layout --------------------------------------------- *)

(* [.lpt] v3 splits the event stream into fixed-size chunks so a reader
   can decode any chunk range without touching what precedes it:

   - the interned tables arrive as per-chunk {i prefix extensions} — each
     chunk carries only the table entries that first become needed there,
     appended in the same global id order as v1/v2, and the last chunk
     tops every table up to its full length (so ids, and therefore the
     v2<->v3 round trip, are preserved exactly);
   - each chunk opens with a {i carry-in set}: the pre-chunk replay state
     (last-alloc size/event/chain, birth clock, first-free event) of
     every object the chunk references but did not itself allocate first,
     which is exactly what a mid-trace fold needs to continue the
     sequential state machines;
   - event delta state (prev alloc/free/touch) resets at each chunk
     boundary, so a chunk's events decode standalone;
   - a footer indexes every chunk: byte offset, first event index, event
     count, plus the replay counters at chunk entry (next expected
     object, allocation clock, live bytes/objects).  The footer's own
     byte offset sits in a fixed-width slot just before the end marker,
     so a seeking reader finds it from the file tail in O(1).

   Sequential readers never need the footer — in-chunk headers carry
   everything — which keeps v3 streamable from a pipe. *)

let add_fixed64 b n =
  for i = 0 to 7 do
    Buffer.add_char b (Char.unsafe_chr ((n lsr (8 * i)) land 0xff))
  done

(* pre-chunk replay state of one carried-in object *)
type carry = {
  cr_obj : int;
  cr_size : int;  (** size of the object's last allocation *)
  cr_alloc_event : int;  (** event index of that allocation *)
  cr_alloc_chain : int;  (** chain id of that allocation *)
  cr_birth_clock : int;  (** allocation clock just before it *)
  cr_freed_at : int;  (** event index of the object's first free, -1 live *)
}

let to_buffer_v3 ?(name = "<trace>") ?(chunk_events = default_chunk_events) b
    (t : Trace.t) =
  if chunk_events < 1 then
    invalid_arg "Binio.to_buffer_v3: chunk_events must be positive";
  locating_negatives ~name t @@ fun () ->
  let n_events = Array.length t.events in
  let n_chunks = max 1 ((n_events + chunk_events - 1) / chunk_events) in
  let names = Lp_callchain.Func.names t.funcs in
  let si = site_interner () in
  let alloc_base = alloc_base_of_version version_sharded in
  (* emitted table prefixes *)
  let funcs_done = ref 0
  and chains_done = ref 0
  and tags_done = ref 0
  and sites_done = ref 0 in
  (* per-object replay state feeding the carry-in sets and the footer *)
  let hint = max 16 t.n_objects in
  let born = Grow.create hint in
  let osize = Grow.create hint in
  let oalloc_ev = Grow.create ~default:(-1) hint in
  let oalloc_chain = Grow.create ~default:(-1) hint in
  let obirth = Grow.create hint in
  let ofreed = Grow.create ~default:(-1) hint in
  (* stamp of the chunk that last pulled an object into a carry set *)
  let carried = Grow.create ~default:(-1) hint in
  let clock = ref 0
  and live_bytes = ref 0
  and live_objs = ref 0
  and next_obj = ref 0 in
  let footer_entries = ref [] in
  (* header *)
  Buffer.add_string b magic;
  Buffer.add_char b (Char.chr version_sharded);
  add_string b t.program;
  add_string b t.input;
  add_varint b t.instructions;
  add_varint b t.calls;
  add_varint b t.heap_refs;
  add_varint b t.total_refs;
  add_varint b t.n_objects;
  Array.iter (add_varint b) t.obj_refs;
  add_varint b n_events;
  add_varint b chunk_events;
  add_varint b n_chunks;
  for chunk = 0 to n_chunks - 1 do
    let lo = chunk * chunk_events in
    let hi = min n_events (lo + chunk_events) in
    let offset = Buffer.length b in
    footer_entries :=
      (offset, lo, hi - lo, !next_obj, !clock, !live_bytes, !live_objs)
      :: !footer_entries;
    (* pass 1: the carry-in set is the pre-chunk state of every object the
       chunk references that was already born, snapshotted before any of
       the chunk's own events apply *)
    let carry = ref [] in
    for i = lo to hi - 1 do
      let obj =
        match t.events.(i) with
        | Event.Alloc { obj; _ }
        | Event.Free { obj; _ }
        | Event.Realloc { obj; _ }
        | Event.Touch { obj; _ } ->
            obj
      in
      if
        obj >= 0
        && Grow.get born obj = 1
        && Grow.get carried obj <> chunk
      then begin
        Grow.set carried obj chunk;
        carry :=
          {
            cr_obj = obj;
            cr_size = Grow.get osize obj;
            cr_alloc_event = Grow.get oalloc_ev obj;
            cr_alloc_chain = Grow.get oalloc_chain obj;
            cr_birth_clock = Grow.get obirth obj;
            cr_freed_at = Grow.get ofreed obj;
          }
          :: !carry
      end
    done;
    let carry =
      List.sort (fun a b -> compare a.cr_obj b.cr_obj) !carry
    in
    (* pass 2: encode events (reset delta state, global site interning)
       while updating the replay state *)
    let events_buf = Buffer.create 65536 in
    let prev_alloc = ref (-1)
    and prev_free = ref 0
    and prev_touch = ref 0
    and prev_realloc = ref 0 in
    for i = lo to hi - 1 do
      encode_event ~alloc_base events_buf si ~prev_alloc ~prev_free ~prev_touch
        ~prev_realloc t.events.(i);
      match t.events.(i) with
      | Event.Alloc { obj; size; chain; _ } ->
          if obj >= 0 then begin
            Grow.set born obj 1;
            Grow.set osize obj size;
            Grow.set oalloc_ev obj i;
            Grow.set oalloc_chain obj chain;
            Grow.set obirth obj !clock;
            Grow.set ofreed obj (-1);
            if obj >= !next_obj then next_obj := obj + 1
          end
          else incr next_obj;
          clock := !clock + size;
          live_bytes := !live_bytes + size;
          incr live_objs
      | Event.Free { obj; _ } ->
          if obj >= 0 then begin
            live_bytes := !live_bytes - Grow.get osize obj;
            if Grow.get born obj = 1 && Grow.get ofreed obj = -1 then
              Grow.set ofreed obj i
          end;
          decr live_objs
      | Event.Realloc { obj; old_size; new_size; _ } ->
          (* the carry-in size of a later chunk must be the current
             (post-resize) size, so [osize] tracks it; the clock grows by
             the grown delta only, live bytes by the tracked delta —
             mirroring the stats folds these counters seed *)
          if obj >= 0 then begin
            live_bytes := !live_bytes - Grow.get osize obj + new_size;
            Grow.set osize obj new_size
          end;
          clock := !clock + max 0 (new_size - old_size)
      | Event.Touch _ -> ()
    done;
    (* table prefix extensions: everything the chunk's new sites pull in,
       and the full remainder on the last chunk *)
    let last = chunk = n_chunks - 1 in
    let new_sites =
      List.filteri (fun i _ -> i >= !sites_done) (List.rev si.si_defs)
    in
    let chains_hi = ref !chains_done and tags_hi = ref !tags_done in
    List.iter
      (fun (chain, _key, tag) ->
        if chain >= !chains_hi then chains_hi := chain + 1;
        if tag >= !tags_hi then tags_hi := tag + 1)
      new_sites;
    if last then begin
      chains_hi := Array.length t.chains;
      tags_hi := Array.length t.tags
    end;
    let funcs_hi = ref !funcs_done in
    for cid = !chains_done to !chains_hi - 1 do
      Array.iter
        (fun f -> if f >= !funcs_hi then funcs_hi := f + 1)
        t.chains.(cid)
    done;
    if last then funcs_hi := Array.length names;
    add_varint b (!funcs_hi - !funcs_done);
    for f = !funcs_done to !funcs_hi - 1 do
      add_string b names.(f)
    done;
    funcs_done := !funcs_hi;
    add_varint b (!chains_hi - !chains_done);
    for cid = !chains_done to !chains_hi - 1 do
      add_varint b (Array.length t.chains.(cid));
      Array.iter (add_varint b) t.chains.(cid)
    done;
    chains_done := !chains_hi;
    add_varint b (!tags_hi - !tags_done);
    for tg = !tags_done to !tags_hi - 1 do
      add_string b t.tags.(tg)
    done;
    tags_done := !tags_hi;
    add_varint b (List.length new_sites);
    List.iter
      (fun (chain, key, tag) ->
        add_varint b chain;
        add_zigzag b key;
        add_zigzag b tag)
      new_sites;
    sites_done := si.si_n;
    (* carry-in set, ascending object ids, delta-coded *)
    add_varint b (List.length carry);
    let prev_obj = ref (-1) in
    List.iter
      (fun cr ->
        add_varint b (cr.cr_obj - !prev_obj);
        prev_obj := cr.cr_obj;
        add_varint b cr.cr_size;
        add_varint b cr.cr_alloc_event;
        add_varint b cr.cr_alloc_chain;
        add_varint b cr.cr_birth_clock;
        add_varint b (cr.cr_freed_at + 1))
      carry;
    add_varint b (hi - lo);
    Buffer.add_buffer b events_buf
  done;
  let footer_pos = Buffer.length b in
  add_varint b n_chunks;
  List.iter
    (fun (offset, first_event, n_ev, nobj, sclock, lbytes, lobjs) ->
      add_varint b offset;
      add_varint b first_event;
      add_varint b n_ev;
      add_varint b nobj;
      add_varint b sclock;
      add_zigzag b lbytes;
      add_zigzag b lobjs)
    (List.rev !footer_entries);
  add_fixed64 b footer_pos;
  Buffer.add_char b end_marker

let to_string_v3 ?name ?chunk_events t =
  let b = Buffer.create 65536 in
  to_buffer_v3 ?name ?chunk_events b t;
  Buffer.contents b

let output_v3 ?name ?chunk_events oc t =
  let b = Buffer.create 65536 in
  to_buffer_v3 ?name ?chunk_events b t;
  Buffer.output_buffer oc b

(* -- decoding ------------------------------------------------------------------ *)

(* The decode cursor reads from a [Bigarray] of bytes rather than a
   string: [Unix.map_file] hands loaders a zero-copy view of an on-disk
   trace (see {!Io.read_file}), [Bigarray.Array1.unsafe_get] compiles to
   an inline load in native code, and a GC never moves the buffer while
   tens of millions of byte reads stream through.  [of_string] copies its
   input into a bigarray once, which is noise next to the decode itself. *)

type bytes_view =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type cursor = { buf : bytes_view; len : int; name : string; mutable pos : int }

let big_of_string s =
  let n = String.length s in
  let a = Bigarray.(Array1.create char c_layout n) in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set a i (String.unsafe_get s i)
  done;
  a

let fail c msg =
  failwith (Printf.sprintf "Binio.input: %s: byte %d: %s" c.name c.pos msg)

let read_byte c =
  if c.pos >= c.len then fail c "unexpected end of input";
  let v = Char.code (Bigarray.Array1.unsafe_get c.buf c.pos) in
  c.pos <- c.pos + 1;
  v

(* Full-width counterpart of [add_varint_bits]: accepts up to
   [Sys.int_size] significant bits (9 bytes on a 64-bit platform) and
   rejects — with the offending byte offset — any encoding that would
   overflow the native int instead of silently wrapping. *)
let rec read_varint_groups c shift acc =
  if shift >= Sys.int_size then fail c "varint too long";
  let byte = read_byte c in
  let group = byte land 0x7f in
  if shift > Sys.int_size - 7 && group lsr (Sys.int_size - shift) <> 0 then
    fail c "varint overflows the native int width";
  let acc = acc lor (group lsl shift) in
  if byte land 0x80 = 0 then acc else read_varint_groups c (shift + 7) acc

(* most event fields fit one byte: take those without entering the loop *)
let read_varint_bits c =
  let pos = c.pos in
  if pos < c.len then begin
    let byte = Char.code (Bigarray.Array1.unsafe_get c.buf pos) in
    if byte < 0x80 then begin
      c.pos <- pos + 1;
      byte
    end
    else read_varint_groups c 0 0
  end
  else read_varint_groups c 0 0

let read_varint c =
  let v = read_varint_bits c in
  if v < 0 then fail c "varint overflows unsigned field";
  v

let read_zigzag c = unzigzag (read_varint_bits c)

let read_string c =
  let len = read_varint c in
  (* [c.pos + len] would wrap for a forged length near [max_int] *)
  if len > c.len - c.pos then fail c "truncated string";
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.unsafe_set b i (Bigarray.Array1.unsafe_get c.buf (c.pos + i))
  done;
  c.pos <- c.pos + len;
  Bytes.unsafe_to_string b

let read_array c read =
  let n = read_varint c in
  (* cap the initial allocation: each element consumes at least one byte *)
  if n > c.len - c.pos then fail c "impossible element count";
  Array.init n (fun _ -> read c)

type header = {
  program : string;
  input : string;
  instructions : int;
  calls : int;
  heap_refs : int;
  total_refs : int;
  n_objects : int;
  obj_refs : int array;
  n_events : int;
}

(* The interned tables live on the decoder, not the header: a v3 file
   extends them incrementally at chunk boundaries (v1/v2 files load them
   fully up front), matching the {!Source} interning contract — any id
   carried by an already-yielded event is resolvable, and the counts are
   monotone. *)
type tables = {
  funcs : Lp_callchain.Func.table;
  mutable n_funcs : int;
  mutable chains : Lp_callchain.Chain.t array;
  mutable n_chains : int;
  mutable tags : string array;
  mutable n_tags : int;
  mutable site_defs : (int * int * int) array;
  mutable n_sites : int;
}

let fresh_tables () =
  {
    funcs = Lp_callchain.Func.create_table ();
    n_funcs = 0;
    chains = Array.make 16 [||];
    n_chains = 0;
    tags = Array.make 16 "";
    n_tags = 0;
    site_defs = Array.make 16 (0, 0, 0);
    n_sites = 0;
  }

let append_slot arr n dummy =
  let cap = Array.length !arr in
  if n = cap then begin
    let grown = Array.make (2 * max 16 cap) dummy in
    Array.blit !arr 0 grown 0 n;
    arr := grown
  end

(* parsed footer entry: the replay counters at one chunk's entry *)
type chunk_info = {
  ch_offset : int;  (** absolute byte offset of the chunk *)
  ch_first_event : int;
  ch_n_events : int;
  ch_next_obj : int;  (** next expected (dense-birth) object id *)
  ch_start_clock : int;  (** bytes allocated before the chunk *)
  ch_live_bytes : int;
  ch_live_objs : int;
}

type decoder = {
  c : cursor;
  version : int;
  hdr : header;
  tbl : tables;
  chunk_events : int;  (* 0 for v1/v2 *)
  n_chunks : int;
  (* a range decoder follows a plan of (event-area pos, count, end pos)
     triples over already-complete tables instead of parsing chunk
     headers; sequential decoders have an empty plan *)
  plan : (int * int * int) array;
  mutable plan_next : int;
  mutable cur_end : int;  (* expected byte pos at current chunk's end, -1 none *)
  mutable chunks_left : int;
  mutable in_chunk : int;  (* events left in the current chunk *)
  mutable budget : int;  (* events it may still yield; max_int = to the end *)
  mutable entered : (int * int) list;  (* (offset, n_events), reversed *)
  mutable prev_alloc : int;
  mutable prev_free : int;
  mutable prev_touch : int;
  mutable prev_realloc : int;
  mutable closed : bool;
}

(* -- shared table-section readers (v1/v2 read one delta covering the
      whole table; v3 reads one per chunk) -- *)

let read_func_delta tbl c =
  let n = read_varint c in
  if n > c.len - c.pos then fail c "impossible element count";
  for _ = 1 to n do
    let fname = read_string c in
    if Lp_callchain.Func.intern tbl.funcs fname <> tbl.n_funcs then
      fail c (Printf.sprintf "duplicate function name %S" fname);
    tbl.n_funcs <- tbl.n_funcs + 1
  done

let read_chain_delta tbl c =
  let n = read_varint c in
  if n > c.len - c.pos then fail c "impossible element count";
  for _ = 1 to n do
    let chain = read_array c read_varint in
    Array.iter
      (fun f ->
        if f >= tbl.n_funcs then
          fail c (Printf.sprintf "chain references unknown function %d" f))
      chain;
    let arr = ref tbl.chains in
    append_slot arr tbl.n_chains [||];
    tbl.chains <- !arr;
    tbl.chains.(tbl.n_chains) <- chain;
    tbl.n_chains <- tbl.n_chains + 1
  done

let read_tag_delta tbl c =
  let n = read_varint c in
  if n > c.len - c.pos then fail c "impossible element count";
  for _ = 1 to n do
    let tag = read_string c in
    let arr = ref tbl.tags in
    append_slot arr tbl.n_tags "";
    tbl.tags <- !arr;
    tbl.tags.(tbl.n_tags) <- tag;
    tbl.n_tags <- tbl.n_tags + 1
  done

let read_site_delta tbl c =
  let n = read_varint c in
  if n > c.len - c.pos then fail c "impossible element count";
  for _ = 1 to n do
    let chain = read_varint c in
    if chain >= tbl.n_chains then
      fail c (Printf.sprintf "site references unknown chain %d" chain);
    let key = read_zigzag c in
    let tag = read_zigzag c in
    if tag >= tbl.n_tags then
      fail c (Printf.sprintf "site references unknown tag %d" tag);
    let arr = ref tbl.site_defs in
    append_slot arr tbl.n_sites (0, 0, 0);
    tbl.site_defs <- !arr;
    tbl.site_defs.(tbl.n_sites) <- (chain, key, tag);
    tbl.n_sites <- tbl.n_sites + 1
  done

let read_table_deltas tbl c =
  read_func_delta tbl c;
  read_chain_delta tbl c;
  read_tag_delta tbl c;
  read_site_delta tbl c

let read_carry tbl ~n_objects c =
  let n = read_varint c in
  if n > c.len - c.pos then fail c "impossible element count";
  let prev_obj = ref (-1) in
  Array.init n (fun _ ->
      let delta = read_varint c in
      if delta < 1 then fail c "carry-in objects not strictly increasing";
      let obj = !prev_obj + delta in
      prev_obj := obj;
      if obj >= n_objects then
        fail c (Printf.sprintf "carry-in of out-of-range object %d" obj);
      let cr_size = read_varint c in
      let cr_alloc_event = read_varint c in
      let cr_alloc_chain = read_varint c in
      if cr_alloc_chain >= tbl.n_chains then
        fail c
          (Printf.sprintf "carry-in references unknown chain %d" cr_alloc_chain);
      let cr_birth_clock = read_varint c in
      let cr_freed_at = read_varint c - 1 in
      {
        cr_obj = obj;
        cr_size;
        cr_alloc_event;
        cr_alloc_chain;
        cr_birth_clock;
        cr_freed_at;
      })

let skip_carry c =
  let n = read_varint c in
  if n > c.len - c.pos then fail c "impossible element count";
  for _ = 1 to n do
    for _ = 1 to 6 do
      ignore (read_varint_bits c)
    done
  done

let read_chunk_event_count c =
  let n = read_varint c in
  if n > c.len - c.pos then fail c "impossible element count";
  n

let read_fixed64 c =
  if c.pos + 8 > c.len then fail c "truncated footer pointer";
  let v = ref 0 in
  for i = 7 downto 0 do
    v := (!v lsl 8) lor Char.code (Bigarray.Array1.unsafe_get c.buf (c.pos + i))
  done;
  c.pos <- c.pos + 8;
  !v

(* Parse the footer at the cursor (chunk index + fixed pointer + end
   marker) and leave the cursor at end of input. *)
let read_footer ~n_chunks ~n_events c =
  let footer_pos = c.pos in
  let n = read_varint c in
  if n <> n_chunks then fail c "footer chunk count mismatch";
  let next_event = ref 0 in
  let infos =
    Array.init n (fun _ ->
        let ch_offset = read_varint c in
        let ch_first_event = read_varint c in
        if ch_first_event <> !next_event then
          fail c "footer event indexing is not contiguous";
        let ch_n_events = read_varint c in
        next_event := ch_first_event + ch_n_events;
        let ch_next_obj = read_varint c in
        let ch_start_clock = read_varint c in
        let ch_live_bytes = read_zigzag c in
        let ch_live_objs = read_zigzag c in
        {
          ch_offset;
          ch_first_event;
          ch_n_events;
          ch_next_obj;
          ch_start_clock;
          ch_live_bytes;
          ch_live_objs;
        })
  in
  if !next_event <> n_events then fail c "footer event count mismatch";
  if read_fixed64 c <> footer_pos then fail c "footer pointer mismatch";
  if read_byte c <> Char.code end_marker then fail c "missing end marker";
  if c.pos <> c.len then fail c "trailing bytes after end marker";
  infos

let cursor_of ?(name = "<trace>") (buf : bytes_view) =
  { buf; len = Bigarray.Array1.dim buf; name; pos = 0 }

(* Common header parse: magic, version byte, and the version-specific
   preamble up to (but not including) the first chunk / the event area. *)
let decode_preamble c =
  if
    c.len < 5
    || not (String.equal (String.init 4 (Bigarray.Array1.get c.buf)) magic)
  then fail c "bad magic (not a binary trace)";
  c.pos <- 4;
  let v = read_byte c in
  if v <> version && v <> version_sized && v <> version_sharded then
    fail c (Printf.sprintf "unsupported version %d" v);
  let program = read_string c in
  let input = read_string c in
  let tbl = fresh_tables () in
  (* v1/v2 carry the full tables here; v3 defers them to the chunks *)
  if v < version_sharded then read_table_deltas tbl c;
  let instructions = read_varint c in
  let calls = read_varint c in
  let heap_refs = read_varint c in
  let total_refs = read_varint c in
  let n_objects = read_varint c in
  (* obj_refs is not length-prefixed: it has exactly n_objects entries *)
  if n_objects > c.len - c.pos then fail c "impossible object count";
  let obj_refs = Array.make n_objects 0 in
  for i = 0 to n_objects - 1 do
    obj_refs.(i) <- read_varint c
  done;
  let n_events = read_varint c in
  (* cap the event count: each event consumes at least one byte *)
  if n_events > c.len - c.pos then fail c "impossible element count";
  let chunk_events, n_chunks =
    if v < version_sharded then (0, 0)
    else begin
      let chunk_events = read_varint c in
      if chunk_events < 1 then fail c "chunk size must be positive";
      let n_chunks = read_varint c in
      if n_chunks < 1 || n_chunks - 1 > c.len - c.pos then
        fail c "impossible chunk count";
      if n_chunks <> max 1 ((n_events + chunk_events - 1) / chunk_events) then
        fail c "chunk count does not match event count";
      (chunk_events, n_chunks)
    end
  in
  let hdr =
    {
      program;
      input;
      instructions;
      calls;
      heap_refs;
      total_refs;
      n_objects;
      obj_refs;
      n_events;
    }
  in
  (v, hdr, tbl, chunk_events, n_chunks)

(* The header (counters, per-object refs, and — for v1/v2 — the interned
   tables) precedes the event stream, so a decoder knows every id an
   event can reference before yielding it; v3 chunks extend the tables
   just-in-time at chunk entry.  That is what lets {!Source} stream
   [.lpt] files without materializing them. *)
let decoder ?name (buf : bytes_view) : decoder =
  let c = cursor_of ?name buf in
  let v, hdr, tbl, chunk_events, n_chunks = decode_preamble c in
  {
    c;
    version = v;
    hdr;
    tbl;
    chunk_events;
    n_chunks;
    plan = [||];
    plan_next = 0;
    cur_end = -1;
    chunks_left = n_chunks;
    in_chunk = (if v < version_sharded then hdr.n_events else 0);
    budget = max_int;
    entered = [];
    prev_alloc = -1;
    prev_free = 0;
    prev_touch = 0;
    prev_realloc = 0;
    closed = false;
  }

let header d = d.hdr
let decoder_version d = d.version
let decoder_funcs d = d.tbl.funcs

let decoder_chain d id =
  if id < 0 || id >= d.tbl.n_chains then
    invalid_arg (Printf.sprintf "Binio.decoder_chain: unknown chain %d" id)
  else d.tbl.chains.(id)

let decoder_n_chains d = d.tbl.n_chains

let decoder_tag d id =
  if id < 0 || id >= d.tbl.n_tags then
    invalid_arg (Printf.sprintf "Binio.decoder_tag: unknown tag %d" id)
  else d.tbl.tags.(id)

let decoder_n_tags d = d.tbl.n_tags

(* The per-event readers are top-level functions over the decoder, so
   decoding an event builds nothing but the event.  They keep the
   format's check order: a site is resolved before the object is
   range-checked, and a failure reports the cursor offset at the check. *)
let site_def d what id =
  if id < 0 || id >= d.tbl.n_sites then
    fail d.c (Printf.sprintf "%s references unknown site %d" what id);
  Array.unsafe_get d.tbl.site_defs id

let check_obj d what obj =
  if obj < 0 || obj >= d.hdr.n_objects then
    fail d.c (Printf.sprintf "%s of out-of-range object %d" what obj)

let alloc_event d obj site =
  let chain, key, tag = site_def d "alloc" site in
  check_obj d "alloc" obj;
  d.prev_alloc <- obj;
  let size = read_varint d.c in
  Event.Alloc { obj; size; chain; key; tag }

let free_event d delta size =
  let obj = d.prev_free + delta in
  check_obj d "free" obj;
  d.prev_free <- obj;
  Event.Free { obj; size }

let touch_event d delta count =
  let obj = d.prev_touch + delta in
  check_obj d "touch" obj;
  d.prev_touch <- obj;
  Event.Touch { obj; count }

let realloc_event d delta site =
  let chain, key, tag = site_def d "realloc" site in
  let obj = d.prev_realloc + delta in
  check_obj d "realloc" obj;
  d.prev_realloc <- obj;
  let old_size = read_varint d.c in
  let new_size = read_varint d.c in
  Event.Realloc { obj; old_size; new_size; chain; key; tag }

(* packed opcodes first: they are the common case *)
let read_event d =
  let c = d.c in
  let alloc_base = alloc_base_of_version d.version in
  let op = read_byte c in
  if op >= 0x80 then
    touch_event d (unzigzag ((op lsr 4) land 0x7)) ((op land 0xf) + 1)
  else if op >= 0x40 then free_event d (unzigzag (op land 0x3f)) (-1)
  else if op >= alloc_base then alloc_event d (d.prev_alloc + 1) (op - alloc_base)
  else if op = 0x00 then
    let site = read_varint c in
    alloc_event d (d.prev_alloc + 1) site
  else if op = 0x01 then
    let obj = read_varint c in
    let site = read_varint c in
    alloc_event d obj site
  else if op = 0x02 then free_event d (read_zigzag c) (-1)
  else if op = 0x03 then
    let delta = read_zigzag c in
    let count = read_varint c in
    touch_event d delta count
  (* below [alloc_base] only from version 2 on: 0x05 is the sized free,
     0x04 the version-3 realloc and reserved before that *)
  else if op = sized_free_op then
    let delta = read_zigzag c in
    let size = read_varint c in
    free_event d delta size
  else if op = realloc_op && d.version >= version_sharded then
    let delta = read_zigzag c in
    let site = read_varint c in
    realloc_event d delta site
  else fail c (Printf.sprintf "reserved opcode %#x" op)

let reset_deltas d =
  d.prev_alloc <- -1;
  d.prev_free <- 0;
  d.prev_touch <- 0;
  d.prev_realloc <- 0

(* sequential v3: parse the next chunk's header sections in place *)
let enter_chunk d =
  let off = d.c.pos in
  read_table_deltas d.tbl d.c;
  skip_carry d.c;
  let n = read_chunk_event_count d.c in
  if d.chunk_events > 0 && n > d.chunk_events then
    fail d.c "chunk exceeds declared chunk size";
  d.entered <- (off, n) :: d.entered;
  d.chunks_left <- d.chunks_left - 1;
  d.in_chunk <- n;
  reset_deltas d

(* at exhaustion of a sequential v3 stream: the cursor sits at the
   footer, which must agree with the chunks just walked *)
let finish_v3 d =
  let infos = read_footer ~n_chunks:d.n_chunks ~n_events:d.hdr.n_events d.c in
  List.iteri
    (fun i (off, n) ->
        let j = d.n_chunks - 1 - i in
        if infos.(j).ch_offset <> off then fail d.c "footer offset mismatch";
        if infos.(j).ch_n_events <> n then fail d.c "footer event count mismatch")
    d.entered

let check_chunk_end d =
  if d.cur_end >= 0 && d.c.pos <> d.cur_end then
    fail d.c "chunk byte length mismatch";
  d.cur_end <- -1

(* True when an event can be read: enters the next planned or sequential
   chunk while the current one is spent.  At the end of the stream (the
   first time only) it checks the end marker — for v3 the footer — and
   rejects trailing bytes; a decoder whose budget is spent stops without
   those checks. *)
let rec ready d =
  if d.budget = 0 then false
  else if d.in_chunk > 0 then true
  else if d.plan_next < Array.length d.plan then begin
    check_chunk_end d;
    let pos, n, end_pos = d.plan.(d.plan_next) in
    d.plan_next <- d.plan_next + 1;
    d.c.pos <- pos;
    d.cur_end <- end_pos;
    d.in_chunk <- n;
    reset_deltas d;
    ready d
  end
  else if d.chunks_left > 0 then begin
    enter_chunk d;
    ready d
  end
  else begin
    if not d.closed then begin
      d.closed <- true;
      if Array.length d.plan > 0 then check_chunk_end d
      else if d.version >= version_sharded then finish_v3 d
      else begin
        if read_byte d.c <> Char.code end_marker then
          fail d.c "missing end marker";
        if d.c.pos <> d.c.len then fail d.c "trailing bytes after end marker"
      end
    end;
    false
  end

let decode_batch d n f =
  let k = ref 0 in
  while !k < n && ready d do
    let m = min (n - !k) (min d.in_chunk d.budget) in
    for _ = 1 to m do
      d.in_chunk <- d.in_chunk - 1;
      d.budget <- d.budget - 1;
      f (read_event d)
    done;
    k := !k + m
  done;
  !k

let of_bigarray ?name (buf : bytes_view) : Trace.t =
  let d = decoder ?name buf in
  let h = d.hdr in
  let events = Array.make h.n_events (Event.Free { obj = -1; size = -1 }) in
  let n = ref 0 in
  ignore (decode_batch d h.n_events (fun e -> events.(!n) <- e; incr n));
  (* one more pull consumes the end marker and rejects trailing bytes *)
  if decode_batch d 1 ignore > 0 || !n < h.n_events then
    fail d.c "event count does not match the header";
  {
    Trace.program = h.program;
    input = h.input;
    events;
    chains = Array.sub d.tbl.chains 0 d.tbl.n_chains;
    funcs = d.tbl.funcs;
    n_objects = h.n_objects;
    instructions = h.instructions;
    calls = h.calls;
    heap_refs = h.heap_refs;
    total_refs = h.total_refs;
    obj_refs = h.obj_refs;
    tags = Array.sub d.tbl.tags 0 d.tbl.n_tags;
  }

let of_string ?name s = of_bigarray ?name (big_of_string s)
let input ?name ic = of_string ?name (In_channel.input_all ic)

(* -- the seekable index over a v3 buffer --------------------------------------- *)

(* An [indexed] is the random-access face of a v3 buffer: the footer is
   located through its fixed-width tail pointer, every chunk's table
   delta and carry-in set is loaded (events are not decoded), and range
   decoders can then be opened over any contiguous chunk run.  The index
   is immutable once built, so range decoders on separate domains can
   share it freely. *)
type indexed = {
  ix_buf : bytes_view;
  ix_name : string;
  ix_hdr : header;
  ix_chunk_events : int;
  ix_tbl : tables;  (* complete *)
  ix_chunks : chunk_info array;
  ix_events_pos : int array;  (* per chunk: byte pos of its event area *)
  ix_events_end : int array;  (* per chunk: byte pos just past its events *)
  ix_carries : carry array array;
}

let index ?(name = "<trace>") (buf : bytes_view) : indexed =
  let c = cursor_of ~name buf in
  let v, hdr, tbl, chunk_events, n_chunks = decode_preamble c in
  if v < version_sharded then
    fail c
      (Printf.sprintf
         "version %d traces are not seekable (convert to version %d first)" v
         version_sharded);
  let first_chunk_pos = c.pos in
  (* the footer's fixed-width pointer sits just before the end marker *)
  if c.len < first_chunk_pos + 9 then fail c "truncated sharded trace";
  c.pos <- c.len - 9;
  let footer_pos = read_fixed64 c in
  if footer_pos < first_chunk_pos || footer_pos >= c.len - 9 then
    fail c "footer pointer out of range";
  c.pos <- footer_pos;
  let chunks = read_footer ~n_chunks ~n_events:hdr.n_events c in
  if chunks.(0).ch_offset <> first_chunk_pos then
    fail c "footer offset mismatch";
  let events_pos = Array.make n_chunks 0 in
  let events_end = Array.make n_chunks 0 in
  let carries =
    Array.init n_chunks (fun i ->
        c.pos <- chunks.(i).ch_offset;
        read_table_deltas tbl c;
        let carry = read_carry tbl ~n_objects:hdr.n_objects c in
        let n = read_chunk_event_count c in
        if n <> chunks.(i).ch_n_events then
          fail c "footer event count mismatch";
        if chunk_events > 0 && n > chunk_events then
          fail c "chunk exceeds declared chunk size";
        events_pos.(i) <- c.pos;
        events_end.(i) <-
          (if i = n_chunks - 1 then footer_pos else chunks.(i + 1).ch_offset);
        if events_end.(i) < c.pos then fail c "chunk overlaps its neighbour";
        carry)
  in
  {
    ix_buf = buf;
    ix_name = name;
    ix_hdr = hdr;
    ix_chunk_events = chunk_events;
    ix_tbl = tbl;
    ix_chunks = chunks;
    ix_events_pos = events_pos;
    ix_events_end = events_end;
    ix_carries = carries;
  }

let indexed_header ix = ix.ix_hdr
let indexed_name ix = ix.ix_name
let indexed_chunk_events ix = ix.ix_chunk_events
let indexed_chunks ix = ix.ix_chunks
let indexed_carry ix i = ix.ix_carries.(i)
let indexed_funcs ix = ix.ix_tbl.funcs

(* A decoder over events [first, first+count).  Its tables are the
   (complete, shared, immutable) index tables, and its plan jumps
   straight from event area to event area, from the chunk holding event
   [first] to the last chunk; it decodes up to [first] (at most one
   chunk's worth) and then stops after [count] events. *)
let window_decoder ix ~first ~count =
  let chunks = ix.ix_chunks in
  let n_chunks = Array.length chunks in
  if first < 0 || count < 0 || first + count > ix.ix_hdr.n_events then
    invalid_arg
      (Printf.sprintf "Binio.window_decoder: bad event range %d+%d of %d" first
         count ix.ix_hdr.n_events);
  (* greatest chunk whose first event is <= first *)
  let lo = ref 0 and hi = ref (n_chunks - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if chunks.(mid).ch_first_event <= first then lo := mid else hi := mid - 1
  done;
  let lo = !lo in
  let plan =
    Array.init (n_chunks - lo) (fun i ->
        ( ix.ix_events_pos.(lo + i),
          chunks.(lo + i).ch_n_events,
          ix.ix_events_end.(lo + i) ))
  in
  let d =
    {
      c = cursor_of ~name:ix.ix_name ix.ix_buf;
      version = version_sharded;
      hdr = ix.ix_hdr;
      tbl = ix.ix_tbl;
      chunk_events = ix.ix_chunk_events;
      n_chunks;
      plan;
      plan_next = 0;
      cur_end = -1;
      chunks_left = 0;
      in_chunk = 0;
      budget = max_int;
      entered = [];
      prev_alloc = -1;
      prev_free = 0;
      prev_touch = 0;
      prev_realloc = 0;
      closed = false;
    }
  in
  ignore (decode_batch d (first - chunks.(lo).ch_first_event) ignore);
  d.budget <- count;
  d

(* Wire primitives re-exported at string granularity so the property
   suite can round-trip them over the full native int range without
   reaching into cursors. *)
module Wire = struct
  let zigzag = zigzag
  let unzigzag = unzigzag

  let string_of add n =
    let b = Buffer.create 10 in
    add b n;
    Buffer.contents b

  let of_string read s =
    let c =
      { buf = big_of_string s; len = String.length s; name = "<wire>"; pos = 0 }
    in
    let v = read c in
    if c.pos <> c.len then failwith "Binio.Wire: trailing bytes";
    v

  let varint_to_string = string_of add_varint
  let varint_of_string = of_string read_varint
  let varint_bits_to_string = string_of add_varint_bits
  let varint_bits_of_string = of_string read_varint_bits
  let zigzag_to_string = string_of add_zigzag
  let zigzag_of_string = of_string read_zigzag
end
