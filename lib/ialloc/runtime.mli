(** The instrumented allocation runtime.

    This library plays the role Larus' AE trace-generation tool played in
    the paper: the workload programs route every simulated heap allocation,
    deallocation, and heap reference through it, and it maintains the
    dynamic call-stack so that each allocation is labelled with its raw
    call-chain and call-chain encryption key.

    Workloads bracket their functions with {!in_frame} (or {!enter}/
    {!leave}), create objects with {!alloc}, release them with {!free},
    and report heap accesses with {!touch}.  Stack and global accesses are
    reported with {!non_heap_refs}; abstract instruction work with
    {!instructions}.  {!finish} produces the {!Lp_trace.Trace.t} the
    analysis and simulation layers consume.

    Handles are dense object ids; the runtime checks against double frees
    and use-after-free in touch, so workload bugs surface as exceptions
    rather than as silently wrong traces. *)

type t

type handle = private int
(** An allocated, not-yet-freed object. *)

val create :
  ?ref_ratio:float ->
  program:string ->
  input:string ->
  unit ->
  t
(** [ref_ratio] (default 0.25) models the stack and global references
    implied by ordinary computation: every simulated instruction charged
    with {!instructions} also accrues [ref_ratio] non-heap references at
    {!finish} time.  Heap references are always explicit ({!touch});
    workloads tune the ratio so their heap-reference fraction lands in the
    regime the paper measured on SPARC (Table 2: 47–80%). *)

val func : t -> string -> Lp_callchain.Func.id
(** Intern a function name.  Workloads intern their functions once at
    start-up and reuse the ids. *)

val enter : t -> Lp_callchain.Func.id -> unit
(** Enter a function: pushes a stack frame, counts a call, charges the
    call-overhead instruction cost. *)

val leave : t -> unit
(** Leave the current function. *)

val in_frame : t -> Lp_callchain.Func.id -> (unit -> 'a) -> 'a
(** [in_frame t f body] runs [body] inside a frame for [f]; the frame is
    popped even if [body] raises. *)

val alloc : ?tag:string -> t -> size:int -> handle
(** Allocate a simulated object of [size] bytes (> 0), labelled with the
    current raw call-chain and encryption key.  The optional [tag] names the
    object's type (e.g. ["cell"], ["band_buffer"]) for the type-based
    prediction experiment the paper leaves to future work (§2).

    @raise Invalid_argument if [size <= 0]. *)

val realloc : ?tag:string -> t -> handle -> new_size:int -> int
(** Resize a live object to [new_size] bytes, keeping its handle: the
    emitted {!Lp_trace.Event.Realloc} carries the current call-chain and
    encryption key of the {i resize} site, and the object's lifetime
    spans the resize.  Returns the size the object had before.
    @raise Invalid_argument if the object is freed or [new_size <= 0]. *)

val free : t -> handle -> unit
(** Release an object.
    @raise Invalid_argument on double free. *)

val touch : t -> handle -> int -> unit
(** [touch t h n] records [n] heap references to [h].  [n = 0] is a no-op.
    @raise Invalid_argument if [h] was already freed or [n] is negative. *)

val non_heap_refs : t -> int -> unit
(** Record references to non-heap memory (locals, globals). *)

val instructions : t -> int -> unit
(** Record abstract computational work, in simulated instructions. *)

val size_of : t -> handle -> int
(** The size the object was allocated with. *)

val live_objects : t -> int
(** Number of currently-live objects. *)

val depth : t -> int
(** Current call-stack depth. *)

val finish : t -> Lp_trace.Trace.t
(** Seal the trace.  Live objects are left unfreed (they become the
    survivors of the run).  The runtime must not be used afterwards. *)
