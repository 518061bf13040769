(** Pull-based event sources: the streaming face of a trace.

    A source yields the exact event sequence of a trace — through
    {!iter}, {!fold} or one {!Event.t} at a time through {!next} —
    together with the trace's incrementally
    interned tables (call-chains, function names, type tags) and
    per-object reference counts.  Consumers written against a source make
    a single pass with memory bounded by the live-object population
    rather than the trace length; the {!of_trace} adapter makes every
    such consumer also work on materialized traces.

    {b Interning contract.}  Any id carried by an already-yielded event
    (chain, tag, object) is resolvable through the source's lookup
    functions at that moment, and stays resolvable with the same value
    for the rest of the stream.  [n_chains]/[n_tags] are monotone.
    [refs_of obj] is final once [obj]'s alloc event has been yielded
    (declared up front by the file codecs).  [counters_now] is [Some]
    from the start for every constructor.

    {b Cursor contract.}  Every constructor supplies one bulk cursor,
    [pull]: [pull n f] hands up to [n] events to [f] in stream order and
    returns how many it handed over — fewer than [n] only at exhaustion,
    and [0] on every call after it.  {!iter}, {!fold} and {!next} are
    derived from it.  {!iter} is the hot path: one [pull] drains the
    source with no allocation beyond the events themselves, where
    {!next} builds an option and a callback per event.  An exception
    from the producer reaches the consumer after every event before the
    fault.

    Exhaustion is observable: the end of an {!iter}/{!fold} drain, or
    the first [None] from {!next}, marks the source {!finished}, adds the
    event total to the ["trace.events_streamed"] counter and notes the
    GC's peak heap in ["trace.peak_resident_words"] (see
    {!Lp_obs.Timings}). *)

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
      (** final object count when known up front (file headers, traces) *)
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
      (** the raw bulk cursor (see the cursor contract above); consumers
          should call {!iter}, {!fold} or {!next} instead so streaming
          accounting happens *)
  mutable streamed : int;
  mutable finished : bool;
}

val iter : (Event.t -> unit) -> t -> unit
(** Hand every remaining event to the callback, in order, then mark the
    source finished. *)

val fold : ('a -> Event.t -> 'a) -> 'a -> t -> 'a

val next : t -> Event.t option
(** The next event, or [None] at exhaustion (idempotent afterwards). *)

val events_streamed : t -> int
(** Events yielded so far. *)

val counters : t -> counters
(** [counters_now] without the option, which every constructor fills from
    the start. *)

val n_objects : t -> int
(** Final object count.  @raise Invalid_argument before exhaustion. *)

val of_trace : Trace.t -> t
(** Stream an in-memory trace.  Cheap; a fresh cursor per call. *)

val of_indexed_window : Binio.indexed -> first:int -> count:int -> t
(** [of_indexed_window ix ~first ~count] streams events
    [\[first, first+count)] of a v3 index through a
    {!Binio.window_decoder}, with the complete tables visible from the
    start.  Any number may be open at once, on any domain.
    @raise Invalid_argument on a bad range. *)

val of_indexed : Binio.indexed -> t
(** The whole-trace window ({!of_file} opens v3 files this way). *)

val of_string : ?name:string -> string -> t
(** Stream serialized bytes, auto-detecting text vs binary like
    {!Io.of_string}.
    @raise Failure on malformed input (header errors immediately, event
    errors as the stream reaches them). *)

val of_file : string -> t
(** Stream a trace file: binary [.lpt] files decode incrementally over a
    read-only memory map (the file never materializes in the OCaml heap),
    text files parse line-at-a-time from the channel (closed at
    exhaustion).
    @raise Failure on malformed input, [Sys_error] if unreadable. *)
