(** The lifetime-predicting arena allocator (§5.1 of the paper), structured
    as a composable front-end: a fixed arena area for predicted-short
    objects over {e any} general-purpose fallback backend (first-fit by
    default, matching the paper).

    A fixed arena area (by default 64 KB split into 16 arenas of 4 KB)
    sits below the general heap.  An allocation predicted short-lived whose
    size fits in an arena is bump-allocated: if the current arena has
    space, increment its live count and allocation pointer.  When the
    current arena fills, the allocator scans for an arena with a zero live
    count (all its objects dead) and resets it; if none exists, the object
    is allocated in the general heap as if it were long-lived.  Objects
    larger than an arena, and objects not predicted short-lived, also go to
    the general heap.  Freeing an address inside the arena area decrements
    the owning arena's count; other addresses go to the fallback.

    Per the paper's simulation: the arena area is 64 KB — twice the 32 KB
    short-lived threshold — "with the intuition that by the time the last
    half of the 64 kilobytes are filled ... objects in the first half of
    the arena are dead", and it is blocked into 16 small arenas so that a
    mispredicted long-lived object ties up only its own 4 KB
    ("blocking reduces the space consumed by erroneously predicted
    long-lived objects"). *)

type config = {
  n_arenas : int;
  arena_size : int;  (** bytes per arena *)
}

val default_config : config
(** 16 arenas of 4096 bytes. *)

type t

val create : ?config:config -> ?fallback:Backend.t -> unit -> t
(** [fallback] is the general-purpose backend for unpredicted, oversized
    and overflowing objects; it is instantiated with its base just above
    the arena area.  Defaults to first-fit, the paper's choice.  The
    arena area itself costs nothing up front: each arena's byte map of
    live object starts is taken when that arena first bump-allocates,
    so even the largest geometry the registry accepts
    ([arena:n=4096:chunk=1048576], a 4 GiB area) replays in proportion
    to the arenas it touches.  The maps are leased from the calling
    domain's pool, and a map made for one replay serves the same arena
    index in the next (see {!release}). *)

val release : t -> unit
(** Gives the start maps back to their domain's pool, reset to zero, and
    releases the fallback; [t] must not be used afterwards. *)

val alloc : t -> size:int -> predicted:bool -> int
(** Returns the object's address.  Charges the per-allocation lifetime
    prediction cost separately — see {!charge_prediction}.
    @raise Invalid_argument if [size <= 0]. *)

val free : t -> int -> unit
(** @raise Invalid_argument on an address not currently allocated. *)

val charge_prediction : t -> int -> unit
(** [charge_prediction t cost] adds the per-allocation prediction overhead
    (18 instructions for length-4 chains; the amortised cce cost
    otherwise).  Kept separate so the driver can price both schemes from
    one simulation. *)

val arena_allocs : t -> int
(** Objects placed in arenas. *)

val arena_bytes : t -> int
(** Bytes placed in arenas. *)

val arena_resets : t -> int
(** Times an exhausted arena was recycled (count = 0 rewind). *)

val overflow_allocs : t -> int
(** Predicted-short allocations that fell back to the general heap because
    no arena had space — arena pollution in action. *)

val allocs : t -> int
val frees : t -> int

val max_heap_size : t -> int
(** Fallback heap high-water plus the whole arena area, as Table 8 counts
    it ("The arena heap sizes include the 64-kilobyte arena area"). *)

val alloc_instr : t -> int
val free_instr : t -> int

val general_name : t -> string
(** Name of the fallback backend in use. *)

val stats : t -> Metrics.arena_stats

val check_invariants : t -> unit
(** Arena live counts match the live-object table, bump pointers stay in
    range, and the fallback's own invariants hold.
    @raise Failure when an invariant is broken. *)

val backend : ?config:config -> ?fallback:Backend.t -> unit -> Backend.t
(** The allocator as a registry backend, named ["arena"], with the given
    geometry and fallback (defaults as {!create}).  Its [create]'s
    [base] is ignored: the arena area anchors the address space at 0
    and places the fallback above itself. *)
