(** The one spec grammar of allocator backends ({!Registry}) and lifetime
    oracles ([Lifetime.Oracle]): [name:key=value:key=value...], a
    member's name or alias then ':'-separated parameters (',' stays the
    CLI's list separator), ladder elements joined with '+'.  Each member
    declares its parameters as {!row}s, which drive the one parser, the
    canonical printer and the README grammar tables.  Parsing never
    raises: it returns a one-line [Error], ending [(in spec "...")] for a
    parameter error, which the CLIs turn into a usage error (exit 2). *)

type value =
  | Int of int
  | Ints of int array  (** a ladder *)
  | Name of string  (** a canonical member name *)
  | Unset  (** an optional parameter left to its context *)

type kind =
  | Bounded of { lo : int; hi : int option; multiple : int option }
      (** an int in [[lo, hi]]; without [hi], a positive one ([lo] is 1,
          or [multiple], which it must then be a multiple of) *)
  | Ladder of { lo : int; hi : int; multiple : int; max_len : int }
      (** at most [max_len] strictly ascending multiples of [multiple]
          in [[lo, hi]] *)
  | Member  (** another member of the family, by name or alias *)
  | Optional of { lo : int; unset : string }
      (** a positive int ([lo] is 1) or [Unset], which the grammar table
          shows as [unset] *)

type row = {
  key : string;
  kind : kind;
  default : value;
  grammar : string;  (** value shape, e.g. ["<bytes>"] *)
  doc : string;
}

type member = {
  name : string;
  aliases : string list;
  doc : string;  (** the grammar table's text for a member without rows *)
  rows : row list;  (** in canonical order *)
}

type family = {
  noun : string;  (** ["backend"], as in "empty backend spec" *)
  full_noun : string;  (** ["allocator backend"], as in "unknown ..." *)
  members : member list;
}

type t
(** A parsed, validated spec: a member and the values it was given. *)

val parse : family -> string -> (t, string) result

val make : family -> string -> (string * value) list -> (t, string) result
(** [make family name values] validates [values] as {!parse} would
    their printed form. *)

val to_string : t -> string
(** The canonical form: alias resolved, parameters in row order, those
    at their default dropped, values printed from their typed form — so
    [seg:slab=016+0x20] prints [segfit:slab=16+32]. *)

val markdown : family -> string
(** The grammar table: one line per row, or per member without rows. *)

val find : family -> string -> member option
(** By name or alias. *)

val names : family -> string list

val unknown : family -> string -> string
(** The "unknown ... (known: ...)" message for a name. *)

val error : string -> ('a, unit, string, ('b, string) result) format4 -> 'a
(** [error spec fmt ...] is [Error "<message> (in spec \"<spec>\")"]. *)

val bare : member -> t
(** The member with every parameter at its default. *)

(** {2 Values}  The given value, or else the row's default.
    @raise Not_found or [Invalid_argument] for a key of another member
    or kind. *)

val name : t -> string
(** The member's canonical name. *)

val get : t -> string -> value

val int : ?default:int -> t -> string -> int
(** [default] stands in for the row's default. *)

val ints : t -> string -> int array
val text : t -> string -> string
