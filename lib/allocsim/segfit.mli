(** Segregated fit with power-of-two size classes — the BSD-descendant
    design modern general-purpose allocators (PHKmalloc, tcmalloc's small
    path, jemalloc bins) use, added as the registry's "modern baseline"
    alongside the paper's 1993 allocators.

    Small objects (rounded, with an 8-byte header, to a power of two up to
    half a page) are carved from per-class one-page slabs; each slab tracks
    its live count and a stack of freed cells.  Unlike the Kingsley BSD
    allocator, a slab whose live count reaches zero returns its page to a
    shared pool that any size class can reclaim, so memory moves between
    size classes and fragmentation stays bounded under phase changes.
    Objects larger than half a page get dedicated whole-page spans, reused
    exactly by page count.  Allocation and free are constant-time. *)

type t

val default_classes : int array
(** The power-of-two cell-size ladder [16; 32; ...; 2048] the allocator
    has always used; [create] without [classes] is byte-identical to the
    pre-parameterized allocator. *)

val create : ?base:int -> ?classes:int array -> unit -> t
(** The payload-origin map and the page table start small and grow with
    the break; they and the class-lookup bytes are leased from the
    calling domain's pool (see {!release}).

    [classes] (default {!default_classes}) is the slab cell-size ladder:
    strictly ascending, each a multiple of 16 (the payload-origin map's
    direct-address key is the 16-byte-aligned page offset) within
    [16, 4096], at most 128 entries.  Objects needing more than the last
    entry (header included) take the whole-page span path.
    @raise Invalid_argument on a ladder violating those constraints. *)

val release : t -> unit
(** Gives the allocator's tables back to its domain's pool, reset to
    their fresh contents; [t] must not be used afterwards. *)

val alloc : t -> int -> int
(** @raise Invalid_argument if size is not positive. *)

val free : t -> int -> unit
(** @raise Invalid_argument on an address not currently allocated. *)

val max_heap_size : t -> int
val alloc_instr : t -> int
val free_instr : t -> int
val allocs : t -> int
val frees : t -> int
val charge_alloc : t -> int -> unit

val slabs_created : t -> int
val pages_recycled : t -> int
val large_spans : t -> int

val check_invariants : t -> unit
(** Slab accounting: live counts match the live-object table, bump pointers
    stay inside their page, nonfull lists hold only slabs with room.
    @raise Failure when an invariant is broken. *)

val backend : ?classes:int array -> unit -> Backend.t
(** The allocator as a registry backend, named ["segfit"], over the
    cell-size ladder [classes] (default {!default_classes}; the
    [segfit:slab=<list>] spec).
    @raise Invalid_argument at [create] on a ladder {!create} rejects. *)
