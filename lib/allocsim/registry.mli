(** The name-keyed allocator registry.

    Callers — {!Driver}, the simulation pipeline, the CLI's
    [--allocators] flag, the bench harness, the generic property tests —
    select backends by string instead of hard-coding allocator variants.
    Five backends are built in: ["first-fit"] (alias [ff]), ["best-fit"]
    (alias [bf]), ["bsd"], ["segfit"] (alias [seg]) and ["arena"].

    To add an allocator: implement {!Backend.BACKEND} and add an entry,
    with its parameter rows and a builder, to the table in
    [registry.ml]. *)

val family : Spec.family
(** The backends and their parameter rows, in table order. *)

val names : unit -> string list
(** Canonical names, in table order. *)

val backend : ?arena_config:Arena.config -> string -> Backend.t
(** [backend name] instantiates the named backend's module (the allocator
    state itself is created per replay by {!Driver.run}).  Accepts
    aliases; backends without arena geometry ignore [arena_config].
    @raise Failure on an unknown name, listing the known ones. *)

val canonical_name : string -> string
(** Resolve an alias to the canonical name.  @raise Failure if unknown. *)

(** {2 Parameterized backend specs}

    A spec is [name:key=value:key=value...] in the grammar of {!Spec}
    (e.g. [segfit:slab=16+64+256+1024]).  A spec whose parameters all sit
    at their defaults builds the very same backend as the plain name, so
    metrics stay byte-identical (enforced by the qcheck equivalence
    property).  Parsing never raises: errors come back as [Error reason]
    and the CLIs map them to usage errors (exit 2). *)

val build : ?arena_config:Arena.config -> Spec.t -> Backend.t
(** Instantiate a spec of {!family}.  [arena_config] stands in for the
    arena defaults of parameters the spec leaves out, exactly as
    {!backend} does for the plain name. *)

val backend_of_spec :
  ?arena_config:Arena.config -> string -> (Backend.t, string) result
(** {!Spec.parse} then {!build}.  Parameters: [first-fit]/[best-fit]
    take [sbrk=<bytes>]; [segfit] takes [slab=<n>+<n>+...]; [arena] takes
    [n=<count>], [chunk=<bytes>] and [fallback=<name>]; [bsd] takes none. *)

val specs_of_list : string -> (string list, string) result
(** A comma-separated list of specs, the CLIs' [--allocators] value,
    split and each checked by {!backend_of_spec}.  An empty list or an
    empty element is an [empty backend spec] error, like any malformed
    spec. *)

val canonical_spec : string -> (string, string) result
(** {!Spec.to_string} of the parsed spec: [seg:slab=16+32] becomes
    [segfit:slab=16+32] and [arena:n=16] collapses to [arena].  The
    simulation keys a parameterized job on it. *)

val grammar_markdown : unit -> string
(** The backend parameter grammar as a markdown table ({!Spec.markdown}).
    README.md embeds this table verbatim; a drift test keeps the two in
    sync. *)
