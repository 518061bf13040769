(** The 4.2BSD (Kingsley) allocator: segregated power-of-two free lists.

    Requests are rounded up (including an 8-byte header) to the next power
    of two, with a 16-byte minimum.  Each size class keeps a LIFO free
    list; an empty class carves a fresh page from [sbrk].  Blocks are never
    split, coalesced or returned to the system — allocation and free are a
    handful of instructions, at the cost of internal fragmentation.  This
    is Table 9's "BSD" column. *)

type t

val create : ?base:int -> unit -> t
(** The payload-class map starts small and grows with the break; it is
    leased from the calling domain's pool (see {!release}). *)

val release : t -> unit
(** Gives the class map back to its domain's pool, reset to its fresh
    contents; [t] must not be used afterwards. *)

val alloc : t -> int -> int
(** @raise Invalid_argument if size is not positive. *)

val free : t -> int -> unit
(** @raise Invalid_argument on an address not currently allocated. *)

val max_heap_size : t -> int
val alloc_instr : t -> int
val free_instr : t -> int
val allocs : t -> int
val frees : t -> int

val backend : unit -> Backend.t
(** BSD buckets as a registry backend, named ["bsd"]. *)
