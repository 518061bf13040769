(** Complete allocation traces.

    A trace carries the event stream plus the execution-wide counters the
    paper's Table 2 reports: simulated instructions, function calls, and
    heap / total memory-reference counts.  Per-object heap-reference counts
    support Table 6's "New Ref" column (fraction of heap references made to
    predicted-short-lived objects). *)

type t = {
  program : string;  (** workload name, e.g. ["gawk"] *)
  input : string;  (** input-set name, e.g. ["dict-large"] *)
  events : Event.t array;  (** in program order *)
  chains : Lp_callchain.Chain.t array;  (** interned raw chains *)
  funcs : Lp_callchain.Func.table;  (** function names for this run *)
  n_objects : int;  (** objects are numbered [0 .. n_objects-1] *)
  instructions : int;  (** simulated instructions executed *)
  calls : int;  (** function calls *)
  heap_refs : int;  (** references to heap objects *)
  total_refs : int;  (** all memory references (heap + stack/global) *)
  obj_refs : int array;  (** per-object heap references *)
  tags : string array;  (** interned type-tag names; [Alloc.tag] indexes here *)
}

module Builder : sig
  (** Incremental construction, used by the instrumented runtime: events
      accumulate in program order and {!finish} returns the complete
      trace. *)

  type trace := t
  type t

  val create : program:string -> input:string -> funcs:Lp_callchain.Func.table -> unit -> t

  val intern_chain : t -> Lp_callchain.Chain.t -> int
  (** Intern a raw stack snapshot; equal chains share one id. *)

  val intern_tag : t -> string -> int
  (** Intern a type-tag name. *)

  val alloc : t -> ?tag:int -> size:int -> chain:int -> key:int -> unit -> int
  (** Record a birth; returns the new object id.  [tag] defaults to [-1]
      (untagged). *)

  val realloc :
    t -> ?tag:int -> new_size:int -> chain:int -> key:int -> obj:int -> unit -> unit
  (** Record a resize of live object [obj] to [new_size] bytes; the
      declared old size is the builder's tracked current size.  [chain]
      and [key] snapshot the stack at the resize site, as {!alloc} does.
      @raise Invalid_argument on an unknown or already-freed object, or a
      non-positive size. *)

  val free : ?size:int -> t -> obj:int -> unit
  (** Record a death.  [size] is the declared (sized-deallocation) size,
      defaulting to [-1] (undeclared) — see {!Event.t}.
      @raise Invalid_argument on double free or an unknown object. *)

  val touch : t -> obj:int -> int -> unit
  (** Record [n] heap references to [obj]. *)

  val non_heap_refs : t -> int -> unit
  (** Record [n] stack/global references. *)

  val instructions : t -> int -> unit
  (** Record [n] simulated instructions. *)

  val set_calls : t -> int -> unit
  (** Record the final function-call count (taken from the call-stack). *)

  val live_objects : t -> int
  (** Objects currently alive (born and not yet freed). *)

  val finish : t -> trace
  (** The recorded trace.  The builder must not be used afterwards. *)
end

val iter_allocs :
  t -> (obj:int -> size:int -> chain:int -> key:int -> tag:int -> unit) -> unit
(** Visit every allocation event in program order. *)

val total_bytes : t -> int
(** Total bytes allocated over the run (births plus growing-resize
    deltas; shrinks count nothing) — also the trace's final clock
    value. *)

val total_objects : t -> int

val has_realloc : t -> bool
(** Whether the trace carries any {!Event.Realloc} — the discriminator
    between binary versions that can and cannot express it. *)

val chain_of_alloc : t -> int -> Lp_callchain.Chain.t
(** [chain_of_alloc t chain_id] resolves an interned chain id. *)

val tile : t -> int -> t
(** [tile t n] concatenates [n] copies of [t], renumbering each copy's
    objects past the previous copy's (dense birth order is preserved)
    and scaling the execution counters — a way to synthesize long traces
    from a real workload, e.g. to exercise many chunks of the sharded
    layout.  [tile t 1] is [t] itself.
    @raise Invalid_argument when [n < 1]. *)
