(** The pluggable allocator-backend interface.

    Every simulated allocator implements [BACKEND]; the replay engine
    ({!Driver.run}) and the generic property tests are written once against
    this signature, and the name-keyed {!Registry} hands out backends to
    the simulation pipeline, the CLI and the bench harness.  Adding an
    allocator is therefore a one-file change: implement the signature
    in one adapter, built by one constructor of the allocator's module
    (e.g. [First_fit.backend ?sbrk_chunk ?policy ()]), then add an entry
    to the registry's table.

    Contract:
    - [create ?base ()] returns a fresh allocator whose simulated
      address space starts at [base] (default 0).  Its tables start small
      and grow with the simulated break, through {!Lp_trace.Grow.widen}.
      A backend may lease them from its per-domain {!Scratch.pool}, as
      the driver leases its per-object tables for the same replay; a
      second live instance on the same domain then gets fresh ones, so
      all state is private to the returned value and independent
      instances may replay concurrently on separate domains.
    - [release t] ends the allocator's life: it gives any leased tables
      back to the calling domain's pool, their written prefix reset, so
      the next instance cannot tell them from fresh ones.  [t] must not
      be used afterwards.  {!Driver.run} calls it once per replay, after
      the metrics are read and after giving back its own tables, also
      when the replay fails; an allocator that is never released keeps
      its tables, and later instances on its domain get fresh ones.  A
      backend that wraps another (the arena's fallback, the sanitizer)
      releases what it wraps.
    - [alloc t ~size ~predicted] returns the payload address of a new
      block.  [predicted] is the lifetime predictor's verdict for this
      object; backends that do not segregate by lifetime ignore it (and
      declare [uses_prediction = false] so the driver never pays the
      prediction cost on their behalf).  Raises [Invalid_argument] if
      [size <= 0].
    - [free t addr] releases a previously returned payload address and
      raises [Invalid_argument] on any other address.
    - [realloc] is an {i optional} hook: [None] means the backend has no
      native resize path and the driver synthesizes one as free + alloc +
      copy (billing {!Cost_model} copy charges itself).  [Some f] hands
      the decision to the backend: [f t ~addr ~old_size ~new_size
      ~predicted] returns the block's (possibly unchanged) payload
      address; returning [addr] itself declares an in-place grow/shrink,
      any other address declares a move whose copy the driver then
      charges.  The hook must leave the backend's alloc/free counters
      consistent with the addresses it returns (a move is one free and
      one alloc; in place is neither).
    - [charge_alloc t n] adds [n] simulated instructions to the allocation
      cost counter — the driver uses it to bill the per-allocation lifetime
      prediction (18 instructions for length-4 chains, the amortised
      call-chain-encryption cost otherwise).
    - [extra t] reports backend-specific statistics as a
      {!Metrics.extra}; backends with nothing to add return {!Metrics.Core}.
    - [check_invariants t] verifies internal structural invariants
      (free-list consistency, block tiling, slab accounting) and raises
      [Failure] when one is broken; backends with no checkable structure
      may make it a no-op. *)

module type BACKEND = sig
  type t

  val name : string
  (** Registry key and {!Metrics.t.algorithm} value. *)

  val uses_prediction : bool
  (** True only for backends that act on the [predicted] flag; the driver
      skips the predictor (and its instruction cost) for the rest. *)

  val create : ?base:int -> unit -> t
  val release : t -> unit
  val alloc : t -> size:int -> predicted:bool -> int
  val free : t -> int -> unit

  val realloc :
    (t -> addr:int -> old_size:int -> new_size:int -> predicted:bool -> int)
    option
  (** Native resize path, or [None] for the driver's free+alloc+copy
      fallback.  See the contract above. *)

  val charge_alloc : t -> int -> unit
  val allocs : t -> int
  val frees : t -> int
  val alloc_instr : t -> int
  val free_instr : t -> int
  val max_heap_size : t -> int
  val extra : t -> Metrics.extra
  val check_invariants : t -> unit
end

type t = (module BACKEND)
(** A backend, first-class.  {!Driver.run} instantiates it per replay
    and releases it when the replay ends. *)

val name : t -> string
val uses_prediction : t -> bool
