(** First-fit free-list allocator with Knuth's enhancements: a roving
    pointer (searches resume where the previous one stopped) and immediate
    boundary-tag coalescing of freed neighbours.  This is the paper's
    baseline allocator and the general-purpose fallback inside the arena
    allocator (§5.2: "the first-fit algorithm becomes the degenerate case
    of an arena allocator that allocates no objects in arenas").

    The simulation manages block metadata only (no payload bytes exist);
    addresses are byte offsets in a simulated address space that grows by
    fixed sbrk chunks, and the maximum break is the allocator's heap size
    (Table 8). *)

type t

type policy =
  | First  (** Knuth's first fit with a roving pointer (the paper's baseline) *)
  | Best  (** best fit: whole-list scan for the tightest block (for ablations) *)

val default_sbrk_chunk : int
(** 8192, matching the 8 KB multiples of the paper's Table 8 heap sizes. *)

val create : ?base:int -> ?sbrk_chunk:int -> ?policy:policy -> unit -> t
(** [base] is the address the heap starts at (default 0; the arena
    allocator puts its arena area below).  The block store and the
    payload-address map start small and grow with the heap, so creating
    an allocator costs the same for any trace; both are leased from the
    calling domain's pool (see {!release}).
    [sbrk_chunk] is the granularity of simulated [sbrk] growth (default
    {!default_sbrk_chunk}).
    [policy] defaults to {!First}. *)

val release : t -> unit
(** Gives the allocator's tables back to its domain's pool, reset to
    their fresh contents; [t] must not be used afterwards.  An allocator
    that is never released keeps its tables (see {!Backend.BACKEND}). *)

val alloc : t -> int -> int
(** [alloc t size] returns the payload address of a new block.  The block
    occupies [size] rounded up to 8 bytes plus an 8-byte header.
    @raise Invalid_argument if [size <= 0]. *)

val free : t -> int -> unit
(** [free t addr] frees the block whose payload address is [addr],
    coalescing with free neighbours.
    @raise Invalid_argument on an address not currently allocated. *)

val heap_size : t -> int
(** Current break minus base. *)

val max_heap_size : t -> int
(** High-water mark of {!heap_size} — Table 8's "Heap Size". *)

val live_bytes : t -> int
(** Payload + header bytes currently allocated. *)

val alloc_instr : t -> int
(** Accumulated simulated instructions spent in {!alloc}. *)

val free_instr : t -> int

val allocs : t -> int
val frees : t -> int

val free_blocks : t -> int
(** Current length of the free list (walks it; for tests such as the
    roving-search inspection bound). *)

val check_invariants : t -> unit
(** Verify the block list: blocks tile the heap exactly, no two adjacent
    free blocks, free list consistent.  For tests.
    @raise Failure when an invariant is broken. *)

val backend : ?sbrk_chunk:int -> ?policy:policy -> unit -> Backend.t
(** The allocator as a registry backend, named ["first-fit"] under
    policy {!First} (the default) and ["best-fit"] under {!Best}, over
    an sbrk granularity of [sbrk_chunk] (default {!default_sbrk_chunk};
    the [first-fit:sbrk=<n>] / [best-fit:sbrk=<n>] specs). *)
