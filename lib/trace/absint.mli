(** The fold engine: every streamed and sharded pass over a trace.

    One concrete pass drives any number of {e abstract domains} over the
    event stream.  The engine owns the concrete semantics — event index,
    allocation clock, live-heap byte/object counters, per-object current
    size and birth chain — and exposes them to each domain's step
    function as a {!ctx}; a domain folds the events of one {e range}
    into a {!token} summary and merges a covering partition's summaries,
    walked in range order, into the whole-trace result.

    Every range is seeded from the sharded footer's entry counters and
    carry-in set ({!Sharded.range}), and the sequential paths are the
    one-range special case ({!run_source} replays the whole stream as a
    single range and merges the singleton).  Materialized, [--stream]
    and [--sharded] runs of a well-formed trace therefore produce
    byte-identical results at any domain count, provided the domain's
    [merge] reproduces sequential accumulation order — interning in
    range order is global first-appearance order, deferred
    per-allocation observations replay in global allocation order, and
    per-object state is overlaid range by range, later over earlier.

    Stats, Lifetimes, streamed training, the linter and the audit's
    site-profile and live-interval analyses are all domains of this
    engine; [Lifetime.Shard.run] is the one range-parallel fan-out.

    Domains publish their summaries through the extensible {!token}
    type (each adds a private constructor), which keeps the engine
    first-order: a heterogeneous list of domains runs in one pass and
    their summaries cross OCaml domains as plain values. *)

type token = ..
(** A domain's range or merged summary.  Each domain extends this with
    its own constructor and exposes a [project] to unpack the merge. *)

type entry = {
  en_first_event : int;  (** global index of the range's first event *)
  en_start_clock : int;  (** bytes allocated before the range *)
  en_live_bytes : int;  (** live bytes at range entry *)
  en_live_objs : int;
  en_next_obj : int;  (** next dense-birth object id at range entry *)
  en_carry : Binio.carry array;
  en_objects : int;
      (** capacity for per-object tables: the range's exit object id, or
          the whole source's object count *)
  en_allocs : int;
      (** capacity for per-allocation columns: the range's births, or the
          whole source's object count capped by its event count *)
}
(** Where in the trace a range starts, and how large its tables start:
    {!Sharded.range} minus the cursor.  A whole source starts at event 0
    with zero clocks and an empty carry, sized from its header totals
    (1024 when it has none); a range's capacities come from its own
    footer ids, not from its source, which reports the whole trace's
    totals.  The capacities are hints; every table still grows on
    demand. *)

type ctx = private {
  mutable cx_event : int;  (** index of the current event (absolute) *)
  mutable cx_clock : int;  (** allocation clock {e before} the event *)
  mutable cx_live_bytes : int;  (** live bytes {e before} the event *)
  mutable cx_live_objs : int;
  cx_src : Source.t;  (** for table lookups (chains, funcs, header) *)
  cx_entry : entry;
  mutable cx_size : int array;  (** engine-owned; read with {!cur_size} *)
  mutable cx_chain : int array;  (** engine-owned; read with {!birth_chain} *)
}
(** The engine's concrete state, as each domain's step observes it:
    pre-event values, updated by the engine after all domains have seen
    the event.  After the last event it holds the range's end state,
    which is what the finishers see. *)

val cur_size : ctx -> int -> int
(** An object's current (post-resize) size; [0] if never allocated. *)

val birth_chain : ctx -> int -> int
(** The chain of the object's {e birth} allocation — reallocs don't
    change it — or [-1] if unknown. *)

val born : ctx -> int -> bool
(** Has the object been allocated (ever)? *)

val birth_chains : ctx -> int array
(** The engine's birth-chain table itself, indexed by object id: slots
    past the highest id written hold [-1].  For a finisher that hands
    the table over in its summary; the engine never writes it again. *)

module type DOMAIN = sig
  val name : string

  val reads_heap : bool
  (** Does the domain read the live-heap state — [cx_live_bytes],
      {!cur_size}, {!birth_chain}, {!born}, {!birth_chains}?  It costs
      the engine two words per object, so a pass keeps it only when one
      of its domains does; otherwise the tables stay empty and
      [cx_live_bytes] stays at its entry value.  The clock, the event
      index and the live-object count are always kept. *)

  val enter : ctx -> (Event.t -> unit) * (unit -> token)
  (** Start a range: return the per-event step and the finisher that
      packs the range summary.  Both read the context they were given;
      [ctx.cx_entry] seeds and sizes the domain's own tables. *)

  val merge : token list -> token
  (** Combine a covering partition's summaries, given in range order.
      Sequential runs call this on a singleton. *)
end

val run_range : analyses:(module DOMAIN) list -> Sharded.range -> token list
(** Replay one range under every domain in a single pass; one (unmerged)
    summary token per domain, in domain order. *)

val merge_ranges :
  analyses:(module DOMAIN) list -> token list list -> token list
(** Merge per-range token lists (outer list in range order) into one
    merged token per domain. *)

val run_source : analyses:(module DOMAIN) list -> Source.t -> token list
(** The sequential path: the whole stream as a single range, merged.
    The source is consumed. *)

(** {1 Report rendering} *)

val chain_depth : Source.t -> int -> int
(** Frame count of a chain; [0] when the id is unresolvable. *)

val render_chain : Source.t -> int -> string
(** First three frames, innermost first, ["<-…"]-elided; ["chain N"]
    for an unresolvable id.  Reads the source's tables at call time, so
    it works mid-stream on any id an event has carried. *)
