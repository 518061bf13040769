(** Compact binary serialization of traces (the [.lpt] format).

    Layout (all integers LEB128 varints; [zigzag] marks signed fields):

    {v
    "LPTB" <version>
    program input                    -- length-prefixed strings
    n-funcs  name ...                -- interned function table, id order
    n-chains {len func-id ...} ...   -- interned call-chain table, id order
    n-tags   name ...                -- interned type-tag table, id order
    n-sites  {chain zigzag-key zigzag-tag} ...
                                     -- interned allocation-site table
    instructions calls heap-refs total-refs
    n-objects obj-ref ...            -- final heap-reference count per object
    n-events event ...
    0xE5                             -- end marker
    v}

    An allocation's [(chain, key, tag)] triple almost always repeats (a
    program has few allocation sites), so the triple is interned once in
    the site table and each alloc event names a small site id.  Events
    are opcode-tagged and delta-coded against the previous event of the
    same kind; the frequent cases pack into the single opcode byte:

    - [base+s] (s < 0x40-base): alloc at site [s], implicit
      [obj = previous alloc's obj + 1]; then [size]
    - [0x40+z] (z < 64): free where [z] is the zigzag of
      [obj - previous freed obj]
    - [0x80+(z << 4)+(count-1)] (z < 8, count <= 16): touch, [z] the
      zigzag of [obj - previous touched obj]
    - [0x00] alloc, implicit obj; then [site size]
    - [0x01] alloc; then [obj site size]
    - [0x02] free: [zigzag (obj - previous freed obj)]
    - [0x03] touch: [zigzag (obj - previous touched obj)] [count]

    The packed-alloc [base] is 0x04 in version 1.  A trace containing
    declared (sized-deallocation) free sizes is written as version 2,
    whose base is 0x06: opcode [0x05] is a sized free
    ([zigzag (obj - previous freed obj)] [declared-size]) and [0x04] is
    reserved.  Traces without sized frees — everything our runtime
    produces — are still written as version 1, byte-identical to older
    writers; readers accept both versions.

    Version 3 claims the reserved [0x04] for realloc:
    [zigzag (obj - previous realloc'd obj)] [site old-size new-size],
    the site naming the resize call-chain exactly as an alloc's does.
    The v1/v2 writer raises [Invalid_argument] on a realloc-bearing
    trace (only {!to_string_v3} can express one), and v2 decoders keep
    rejecting [0x04] as reserved, so a realloc event can never be
    smuggled into a version that cannot express it.  Realloc-free
    traces are unaffected byte-for-byte in every version.

    {b Version 3 — the sharded layout.}  [.lpt] v3 (written only on
    request, by {!to_string_v3}/{!output_v3}) splits the event stream
    into fixed-size chunks for seeking and data-parallel replay:

    {v
    "LPTB" 0x03
    program input
    instructions calls heap-refs total-refs
    n-objects obj-ref ...
    n-events chunk-events n-chunks
    chunk ...                        -- n-chunks times
    n-chunks {offset first-event n-events next-obj start-clock
              zigzag-live-bytes zigzag-live-objs} ...
                                     -- the footer index
    footer-offset                    -- 8-byte fixed little-endian
    0xE5
    v}

    where each chunk is

    {v
    n-new-funcs  name ...            -- interned-table prefix extensions
    n-new-chains {len func-id ...} ...
    n-new-tags   name ...
    n-new-sites  {chain zigzag-key zigzag-tag} ...
    n-carry {obj-delta size alloc-event alloc-chain birth-clock
             freed-at+1} ...         -- carry-in set, ascending objects
    n-chunk-events event ...         -- delta state reset per chunk
    v}

    Tables are extended per chunk in the same global id order as v1/v2
    (each chunk carries only what first becomes needed there; the last
    chunk tops every table up to full length), so converting v2 -> v3 ->
    v2 is byte-identical.  The carry-in set snapshots the pre-chunk
    replay state (last-alloc size/event/chain, birth clock, first-free
    event; [freed-at+1 = 0] means live) of every already-born object the
    chunk references, which is what lets a mid-trace fold continue the
    sequential state machines.  The footer records each chunk's byte
    offset, event range and entry-time replay counters; its own offset
    sits in a fixed-width slot before the end marker so a seeking reader
    finds it from the file tail in O(1).  Sequential readers never need
    the footer, so v3 still streams from a pipe.  v1/v2 files remain
    readable unchanged.

    Compared with {!Textio} this is typically >5x smaller and an order of
    magnitude faster to load.  {!Io} auto-detects text vs binary by the
    magic bytes. *)

val magic : string
(** ["LPTB"], the first four bytes of every binary trace. *)

val version_sharded : int
(** [3], the version byte of the sharded layout. *)

val default_chunk_events : int
(** Default events per chunk of {!to_string_v3} (2{^18}). *)

val output : ?name:string -> out_channel -> Trace.t -> unit
(** [.lpt] stores sizes, object and chain ids, touch counts, per-object
    reference counts and the execution counters unsigned; a text trace
    can carry negative ones ([lpalloc lint] reports them).
    @raise Failure on a negative one, naming [name] (default
    ["<trace>"], the file being written), the event index, the object
    and the field — every writer does.
    @raise Invalid_argument if the trace contains realloc events, which
    only the version-3 writer can express. *)

val to_string : ?name:string -> Trace.t -> string
(** As {!output}. *)

val output_v3 : ?name:string -> ?chunk_events:int -> out_channel -> Trace.t -> unit
(** Write the sharded (version 3) layout.  [chunk_events] is the events
    per chunk ({!default_chunk_events}); smaller chunks seek finer and
    parallelize shorter traces, larger chunks compress deltas better.
    @raise Failure on a negative unsigned field, as {!output}.
    @raise Invalid_argument if [chunk_events < 1]. *)

val to_string_v3 : ?name:string -> ?chunk_events:int -> Trace.t -> string

val input : ?name:string -> in_channel -> Trace.t
(** @raise Failure on malformed input, with [name] (default ["<trace>"])
    and the byte offset in the message. *)

val of_string : ?name:string -> string -> Trace.t
(** @raise Failure on malformed input. *)

type bytes_view =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

val of_bigarray : ?name:string -> bytes_view -> Trace.t
(** Decode directly from a byte [Bigarray] — the zero-copy path for
    memory-mapped trace files ({!Io.read_file} maps [.lpt] files and
    calls this).  [of_string] is this plus one copy.
    @raise Failure on malformed input. *)

val big_of_string : string -> bytes_view
(** Copy a string into a byte bigarray (the one copy behind
    [of_string]). *)

(** {1 Incremental decoding}

    The format is streaming-friendly: the execution counters (and, for
    v1/v2, the complete interned tables) precede the event stream, so a
    {!decoder} exposes the {!header} up front and then hands events to a
    callback in batches without building the [Trace.t] event array.  The interned
    tables live on the decoder and — in a v3 stream — grow at chunk
    boundaries, honouring the {!Source} interning contract: any id
    carried by an already-yielded event resolves, and the counts are
    monotone.  {!Source.of_file} is built on this. *)

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

type decoder

val decoder : ?name:string -> bytes_view -> decoder
(** Decode the header (for v1/v2, validating the interned tables exactly
    as {!of_bigarray} does) and position the cursor at the first event.
    @raise Failure on malformed input, with [name] and byte offset. *)

val header : decoder -> header

val decode_batch : decoder -> int -> (Event.t -> unit) -> int
(** [decode_batch d n f] decodes up to [n] events, handing each to [f]
    in stream order, and returns how many it handed over: fewer than [n]
    only at the end of the stream.  Reaching the end also checks the end
    marker (and, for v3, that the footer index agrees with the chunks
    walked) and rejects trailing bytes, so a fully drained decoder has
    validated the same properties as a batch decode.  Building the
    events is the only allocation per event.
    @raise Failure on malformed input, after handing [f] every event
    before the fault. *)

val decoder_version : decoder -> int

val decoder_funcs : decoder -> Lp_callchain.Func.table
(** The interned tables as currently known; for a v1/v2 decoder they are
    complete from the start, for a sequential v3 decoder they grow as
    chunk boundaries pass. *)

val decoder_chain : decoder -> int -> Lp_callchain.Chain.t
val decoder_n_chains : decoder -> int
val decoder_tag : decoder -> int -> string
val decoder_n_tags : decoder -> int

(** {1 The seekable index over a v3 buffer}

    {!index} locates the footer through its fixed-width tail pointer and
    loads every chunk's table deltas and carry-in set {i without
    decoding any events}.  The resulting value is immutable, so
    {!window_decoder}s opened over it can run on separate domains sharing
    the one buffer and table set — the substrate of sharded replay. *)

type carry = {
  cr_obj : int;
  cr_size : int;
      (** the object's current size at chunk entry: its last pre-chunk
          allocation's size as updated by any pre-chunk reallocs *)
  cr_alloc_event : int;  (** event index of that allocation *)
  cr_alloc_chain : int;  (** chain id of that allocation *)
  cr_birth_clock : int;  (** allocation clock just before it *)
  cr_freed_at : int;  (** event index of the object's first free, -1 live *)
}

type chunk_info = {
  ch_offset : int;  (** absolute byte offset of the chunk *)
  ch_first_event : int;
  ch_n_events : int;
  ch_next_obj : int;  (** next expected (dense-birth) object id at entry *)
  ch_start_clock : int;  (** bytes allocated before the chunk *)
  ch_live_bytes : int;  (** live bytes at chunk entry *)
  ch_live_objs : int;  (** live objects at chunk entry *)
}

type indexed

val index : ?name:string -> bytes_view -> indexed
(** @raise Failure on malformed input, or if the buffer is a v1/v2 trace
    (which have no index; convert with {!to_string_v3} first). *)

val indexed_header : indexed -> header
val indexed_name : indexed -> string
val indexed_chunk_events : indexed -> int
val indexed_chunks : indexed -> chunk_info array

val indexed_carry : indexed -> int -> carry array
(** The carry-in set of one chunk, ascending object ids. *)

val indexed_funcs : indexed -> Lp_callchain.Func.table
val indexed_chain : indexed -> int -> Lp_callchain.Chain.t
val indexed_n_chains : indexed -> int
val indexed_tag : indexed -> int -> string
val indexed_n_tags : indexed -> int

(** {1 Wire primitives}

    The varint/zigzag codec at string granularity, exposed for the
    property suite: [zigzag]/[unzigzag] are a bijection on the full
    native int range (including [min_int]/[max_int]), [varint] is the
    unsigned encoding (negative values rejected on both sides), and
    [varint_bits] carries raw bit patterns — negative ints included —
    as an unsigned [Sys.int_size]-bit quantity.  Decoders raise
    [Failure] on overlong or overflowing encodings and on trailing
    bytes. *)
module Wire : sig
  val zigzag : int -> int
  val unzigzag : int -> int
  val varint_to_string : int -> string
  val varint_of_string : string -> int
  val varint_bits_to_string : int -> string
  val varint_bits_of_string : string -> int
  val zigzag_to_string : int -> string
  val zigzag_of_string : string -> int
end

val window_decoder : indexed -> first:int -> count:int -> decoder
(** A fresh decoder over events [\[first, first+count)]: it opens at the
    chunk holding event [first], decodes up to it (at most one chunk's
    worth), and stops after [count] events without the end-of-stream
    checks.  The complete tables are visible from the start; any number
    may be open at once, including on different domains.
    @raise Invalid_argument on a bad range. *)
