(* The one spec grammar.  Backends and oracles declare their parameters
   as rows, and the rows drive the parser, the canonical printer and the
   README tables, so a parameter's bounds, default and messages are
   written once. *)

type value = Int of int | Ints of int array | Name of string | Unset

type kind =
  | Bounded of { lo : int; hi : int option; multiple : int option }
  | Ladder of { lo : int; hi : int; multiple : int; max_len : int }
  | Member
  | Optional of { lo : int; unset : string }

type row = {
  key : string;
  kind : kind;
  default : value;
  grammar : string;
  doc : string;
}

type member = {
  name : string;
  aliases : string list;
  doc : string;
  rows : row list;
}

type family = { noun : string; full_noun : string; members : member list }
type t = { member : member; given : (string * value) list }

let ( let* ) = Result.bind

let error spec fmt =
  Printf.ksprintf (fun msg -> Error (Printf.sprintf "%s (in spec %S)" msg spec)) fmt

let find family name =
  List.find_opt (fun m -> m.name = name || List.mem name m.aliases) family.members

let names family = List.map (fun m -> m.name) family.members

let unknown_as noun family name =
  Printf.sprintf "unknown %s %S (known: %s)" noun name
    (String.concat ", " (names family))

let unknown family name = unknown_as family.full_noun family name

(* -- values --------------------------------------------------------------------- *)

let render = function
  | Int n -> string_of_int n
  | Ints cells -> String.concat "+" (List.map string_of_int (Array.to_list cells))
  | Name s -> s
  | Unset -> ""

let int_of raw =
  match int_of_string_opt raw with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "%S is not an integer" raw)

(* An int without an upper bound must be positive: its [lo] is 1, or its
   [multiple]. *)
let check_int ~lo ~hi ~multiple n =
  match (hi, multiple) with
  | Some hi, _ ->
      if n < lo || n > hi then Error (Printf.sprintf "%d outside [%d, %d]" n lo hi)
      else Ok (Int n)
  | None, Some m ->
      if n < lo || n mod m <> 0 then
        Error (Printf.sprintf "%d is not a positive multiple of %d" n m)
      else Ok (Int n)
  | None, None ->
      if n < lo then Error (Printf.sprintf "%d is not positive" n) else Ok (Int n)

let check_ladder ~lo ~hi ~multiple ~max_len cells =
  let n = Array.length cells in
  if n = 0 then Error "empty ladder"
  else if n > max_len then Error (Printf.sprintf "%d classes (at most %d)" n max_len)
  else
    let rec from i =
      if i = n then Ok (Ints cells)
      else
        let c = cells.(i) in
        if c mod multiple <> 0 then
          Error (Printf.sprintf "class %d is not a multiple of %d" c multiple)
        else if c < lo || c > hi then
          Error (Printf.sprintf "class %d outside [%d, %d]" c lo hi)
        else if i > 0 && c <= cells.(i - 1) then
          Error (Printf.sprintf "classes not strictly ascending at %d" c)
        else from (i + 1)
    in
    from 0

(* a raw parameter value of [member] -> a validated typed one *)
let read family member kind raw =
  match kind with
  | Bounded { lo; hi; multiple } ->
      let* n = int_of raw in
      check_int ~lo ~hi ~multiple n
  | Optional { lo; _ } ->
      let* n = int_of raw in
      check_int ~lo ~hi:None ~multiple:None n
  | Ladder { lo; hi; multiple; max_len } ->
      let* cells =
        List.fold_left
          (fun acc part ->
            let* acc = acc in
            let* n = int_of part in
            Ok (n :: acc))
          (Ok []) (String.split_on_char '+' raw)
      in
      check_ladder ~lo ~hi ~multiple ~max_len (Array.of_list (List.rev cells))
  | Member -> (
      match find family raw with
      | None -> Error (unknown_as family.noun family raw)
      | Some m when m.name = member.name -> Error ("must not be " ^ m.name)
      | Some m -> Ok (Name m.name))

(* -- parsing and printing --------------------------------------------------------- *)

(* Every key must belong to the member's rows and appear at most once;
   then the values are validated in row order. *)
let parse family spec =
  match String.split_on_char ':' spec with
  | [] | [ "" ] -> Error (Printf.sprintf "empty %s spec %S" family.noun spec)
  | name :: segments -> (
      match find family name with
      | None -> Error (unknown family name)
      | Some member ->
          let* raw =
            List.fold_left
              (fun acc seg ->
                let* acc = acc in
                match String.index_opt seg '=' with
                | None -> error spec "bad parameter %S: expected key=value" seg
                | Some i ->
                    let key = String.sub seg 0 i in
                    let v = String.sub seg (i + 1) (String.length seg - i - 1) in
                    if not (List.exists (fun r -> r.key = key) member.rows) then
                      if member.rows = [] then
                        error spec "%s %s takes no parameters" family.noun member.name
                      else
                        error spec "unknown parameter %S for %s (valid: %s)" key
                          member.name
                          (String.concat ", " (List.map (fun r -> r.key) member.rows))
                    else if List.mem_assoc key acc then
                      error spec "duplicate parameter %S" key
                    else Ok ((key, v) :: acc))
              (Ok []) segments
          in
          let* given =
            List.fold_left
              (fun acc row ->
                let* acc = acc in
                match List.assoc_opt row.key raw with
                | None -> Ok acc
                | Some v -> (
                    match read family member row.kind v with
                    | Ok v -> Ok ((row.key, v) :: acc)
                    | Error msg -> error spec "parameter %s: %s" row.key msg))
              (Ok []) member.rows
          in
          Ok { member; given = List.rev given })

(* The canonical form: alias resolved, parameters in row order, defaults
   dropped, every value printed from its typed form. *)
let to_string t =
  String.concat ":"
    (t.member.name
    :: List.filter_map
         (fun row ->
           match List.assoc_opt row.key t.given with
           | Some v when v <> row.default -> Some (row.key ^ "=" ^ render v)
           | _ -> None)
         t.member.rows)

let make family name values =
  parse family
    (String.concat ":"
       (name :: List.map (fun (key, v) -> key ^ "=" ^ render v) values))

(* -- reading values --------------------------------------------------------------- *)

let name t = t.member.name

let get t key =
  match List.assoc_opt key t.given with
  | Some v -> v
  | None -> (List.find (fun r -> r.key = key) t.member.rows).default

let kind_error t key =
  invalid_arg (Printf.sprintf "Spec: %s parameter %s has another kind" t.member.name key)

let int ?default t key =
  match (List.assoc_opt key t.given, default) with
  | None, Some d -> d
  | _ -> ( match get t key with Int n -> n | _ -> kind_error t key)

let ints t key = match get t key with Ints a -> a | _ -> kind_error t key
let text t key = match get t key with Name s -> s | _ -> kind_error t key
let bare member = { member; given = [] }

(* -- the README table --------------------------------------------------------------- *)

let markdown family =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf
    "| %s | parameter | value | default | meaning |\n|---|---|---|---|---|\n"
    family.noun;
  List.iter
    (fun m ->
      match m.rows with
      | [] ->
          Printf.bprintf buf "| `%s` | — | — | — | %stakes no parameters |\n" m.name
            (if m.doc = "" then "" else m.doc ^ "; ")
      | rows ->
          List.iter
            (fun r ->
              let default =
                match (r.default, r.kind) with
                | Unset, Optional { unset; _ } -> unset
                | v, _ -> render v
              in
              Printf.bprintf buf "| `%s` | `%s` | `%s` | `%s` | %s |\n" m.name r.key
                r.grammar default r.doc)
            rows)
    family.members;
  Buffer.contents buf
