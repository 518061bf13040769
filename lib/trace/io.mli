(** Format-agnostic trace I/O.

    Reading auto-detects the format from the first bytes ({!Binio.magic}
    for [.lpt] binary traces, anything else is parsed as the legacy
    {!Textio} line format), so binary and text traces interoperate
    everywhere a trace file is accepted.  Writing picks the format from
    the file extension ([.lpt] means binary) unless forced.

    Loads and stores record their wall-clock span and event count with
    {!Lp_obs.Timings} (stages ["load/<file>"] / ["store/<file>"], counters
    ["trace.bytes_read"] / ["trace.bytes_written"]). *)

type format = Text | Binary

val format_for_path : string -> format
(** [Binary] iff the path ends in [.lpt]. *)

val detect : string -> format
(** Format of serialized bytes: {!Binary} iff they start with
    {!Binio.magic}. *)

val of_string : ?name:string -> string -> Trace.t
(** Auto-detecting parse.  @raise Failure on malformed input. *)

val map_file : string -> Binio.bytes_view option
(** Memory-map a file read-only as a byte bigarray; [None] if the file
    cannot be opened or mapped (empty file, exotic filesystem), in which
    case callers fall back to reading it into a string. *)

val input : ?name:string -> in_channel -> Trace.t
(** Reads the whole channel, then parses with auto-detection. *)

val read_file : string -> Trace.t
(** @raise Failure on malformed input — the message always names the
    file, plus the byte offset (binary) or line number (text) when a
    codec produced it — and [Sys_error] if unreadable. *)

val write_file : ?format:format -> string -> Trace.t -> unit
(** Writes atomically enough for our purposes (single [open]/[write]);
    format defaults to {!format_for_path}.  [Binary] auto-selects the
    lowest version that can express the trace: realloc-bearing traces
    are written in the sharded v3 layout, realloc-free traces exactly
    as older writers produced them.
    @raise Failure, before the file is opened, when [Binary] and the
    trace has a negative value in a field [.lpt] stores unsigned (see
    {!Binio.output}); the message names the file. *)

val output : ?format:format -> out_channel -> Trace.t -> unit
(** [format] defaults to [Text] (the historical behaviour on stdout);
    [Binary] version-selects like {!write_file}. *)
