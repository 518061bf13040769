(* Names (program, function and tag names) are escaped so they can never
   contain the separators of the line format: a raw space would split into
   extra fields that the parser rejects — the writer used to emit exactly
   that for names like "main loop".  The escaping is injective and ASCII:
   '\\'->"\\\\", ' '->"\\s", '\n'->"\\n", '\t'->"\\t", '\r'->"\\r". *)
let escape_name name =
  let needs_escape = function ' ' | '\\' | '\n' | '\t' | '\r' -> true | _ -> false in
  if not (String.exists needs_escape name) then name
  else begin
    let b = Buffer.create (String.length name + 8) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string b "\\\\"
        | ' ' -> Buffer.add_string b "\\s"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | '\r' -> Buffer.add_string b "\\r"
        | c -> Buffer.add_char b c)
      name;
    Buffer.contents b
  end

let write ~(line : string -> unit) (t : Trace.t) =
  line (Printf.sprintf "trace %s %s" (escape_name t.program) t.input);
  let names = Lp_callchain.Func.names t.funcs in
  Array.iteri
    (fun id name -> line (Printf.sprintf "func %d %s" id (escape_name name)))
    names;
  Array.iteri
    (fun id chain ->
      let b = Buffer.create 64 in
      Buffer.add_string b (Printf.sprintf "chain %d" id);
      Array.iter (fun f -> Buffer.add_string b (Printf.sprintf " %d" f)) chain;
      line (Buffer.contents b))
    t.chains;
  Array.iteri
    (fun id name -> line (Printf.sprintf "tag %d %s" id (escape_name name)))
    t.tags;
  line
    (Printf.sprintf "counters %d %d %d %d" t.instructions t.calls t.heap_refs
       t.total_refs);
  Array.iter
    (function
      | Event.Alloc { obj; size; chain; key; tag } ->
          line
            (Printf.sprintf "a %d %d %d %d %d %d" obj size chain key tag
               t.obj_refs.(obj))
      | Event.Free { obj; size } ->
          if size < 0 then line (Printf.sprintf "f %d" obj)
          else line (Printf.sprintf "f %d %d" obj size)
      | Event.Realloc { obj; old_size; new_size; chain; key; tag } ->
          (* format v3's only addition; a realloc-free trace emits no [g]
             line and stays byte-identical to v2 *)
          line
            (Printf.sprintf "g %d %d %d %d %d %d" obj old_size new_size chain
               key tag)
      | Event.Touch { obj; count } -> line (Printf.sprintf "r %d %d" obj count))
    t.events;
  line "end"

let output oc t =
  write t ~line:(fun s ->
      output_string oc s;
      output_char oc '\n')

type parse_state = {
  mutable program : string;
  mutable input_name : string;
  funcs : Lp_callchain.Func.table;
  mutable func_names : (int * string) list;
  mutable chains : (int * int array) list;
  mutable tag_names : (int * string) list;
  mutable events : Event.t list;
  mutable n_objects : int;
  mutable obj_refs : (int * int) list;
  mutable instructions : int;
  mutable calls : int;
  mutable heap_refs : int;
  mutable total_refs : int;
  mutable finished : bool;
}

(* Parse errors carry the source (file name when known), the line, and for
   numeric fields the field name, so a malformed trace points at itself
   instead of dying with a bare [Failure "int_of_string"]. *)
let fail ~name lineno msg =
  failwith (Printf.sprintf "Textio.input: %s:%d: %s" name lineno msg)

(* Object ids index per-object tables, so one outside
   [0, Sys.max_array_length) is refused at its line: past the bound the
   tables cannot grow to it, and a table sized [obj + 1] from [max_int]
   wraps to a negative length. *)
let check_obj ~name lineno what obj =
  if obj < 0 || obj >= Sys.max_array_length then
    fail ~name lineno (Printf.sprintf "%s of out-of-range object %d" what obj)

let int_field ~name lineno ~field s =
  match int_of_string_opt s with
  | Some v -> v
  | None ->
      fail ~name lineno (Printf.sprintf "field %s: %S is not an integer" field s)

let unescape_name ~name lineno s =
  if not (String.contains s '\\') then s
  else begin
    let b = Buffer.create (String.length s) in
    let n = String.length s in
    let i = ref 0 in
    while !i < n do
      (match s.[!i] with
      | '\\' ->
          if !i + 1 >= n then
            fail ~name lineno "dangling escape at end of name";
          (match s.[!i + 1] with
          | '\\' -> Buffer.add_char b '\\'
          | 's' -> Buffer.add_char b ' '
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | c -> fail ~name lineno (Printf.sprintf "unknown escape '\\%c' in name" c));
          incr i
      | c -> Buffer.add_char b c);
      incr i
    done;
    Buffer.contents b
  end

let unescape s = unescape_name ~name:"<string>" 0 s

(* Names written by the escaping writer are a single token; names with raw
   spaces (written by the pre-escaping writer) arrive as several tokens and
   are re-joined, so old files still load. *)
let name_of_tokens ~name lineno tokens =
  unescape_name ~name lineno (String.concat " " tokens)

let parse_line ~name st lineno line =
  let int = int_field ~name lineno in
  match String.split_on_char ' ' (String.trim line) with
  | [ "" ] -> ()
  | "trace" :: program :: rest ->
      st.program <- unescape_name ~name lineno program;
      st.input_name <- String.concat " " rest
  | "func" :: id :: rest ->
      st.func_names <-
        (int ~field:"func-id" id, name_of_tokens ~name lineno rest)
        :: st.func_names
  | "chain" :: id :: funcs ->
      let chain = Array.of_list (List.map (int ~field:"chain-func") funcs) in
      st.chains <- (int ~field:"chain-id" id, chain) :: st.chains
  | "tag" :: id :: rest ->
      st.tag_names <-
        (int ~field:"tag-id" id, name_of_tokens ~name lineno rest) :: st.tag_names
  | [ "counters"; i; c; h; t ] ->
      st.instructions <- int ~field:"instructions" i;
      st.calls <- int ~field:"calls" c;
      st.heap_refs <- int ~field:"heap-refs" h;
      st.total_refs <- int ~field:"total-refs" t
  | [ "a"; obj; size; chain; key; tag; refs ] ->
      let obj = int ~field:"obj" obj in
      check_obj ~name lineno "alloc" obj;
      st.events <-
        Event.Alloc
          { obj; size = int ~field:"size" size; chain = int ~field:"chain" chain;
            key = int ~field:"key" key; tag = int ~field:"tag" tag }
        :: st.events;
      st.obj_refs <- (obj, int ~field:"refs" refs) :: st.obj_refs;
      if obj >= st.n_objects then st.n_objects <- obj + 1
  | [ "f"; obj ] ->
      st.events <- Event.Free { obj = int ~field:"obj" obj; size = -1 } :: st.events
  | [ "f"; obj; size ] ->
      (* a declared (sized-deallocation) size; the linter checks it against
         the allocation *)
      st.events <-
        Event.Free { obj = int ~field:"obj" obj; size = int ~field:"size" size }
        :: st.events
  | [ "g"; obj; old_size; new_size; chain; key; tag ] ->
      st.events <-
        Event.Realloc
          { obj = int ~field:"obj" obj; old_size = int ~field:"old-size" old_size;
            new_size = int ~field:"new-size" new_size;
            chain = int ~field:"chain" chain; key = int ~field:"key" key;
            tag = int ~field:"tag" tag }
        :: st.events
  | [ "r"; obj; count ] ->
      st.events <-
        Event.Touch { obj = int ~field:"obj" obj; count = int ~field:"count" count }
        :: st.events
  | [ "end" ] -> st.finished <- true
  | _ -> fail ~name lineno (Printf.sprintf "unrecognised line %S" line)

(* [lineno] is the last line consumed; whole-trace validation failures
   (missing declarations, dangling references) point there so every
   Textio error carries file:line context. *)
let finish ~name ~lineno st : Trace.t =
  let fail msg = fail ~name lineno msg in
  if not st.finished then fail "missing 'end' line";
  (* Re-intern functions in id order so interned ids match the file's. *)
  let func_names = List.sort compare (List.rev st.func_names) in
  List.iteri
    (fun expect (id, fname) ->
      if id <> expect then fail "non-dense function ids";
      let interned = Lp_callchain.Func.intern st.funcs fname in
      if interned <> id then fail "duplicate function name")
    func_names;
  let chains = List.sort compare (List.rev st.chains) in
  let chain_arr = Array.make (List.length chains) [||] in
  List.iteri
    (fun expect (id, chain) ->
      if id <> expect then fail "non-dense chain ids";
      chain_arr.(expect) <- chain)
    chains;
  let obj_refs = Array.make st.n_objects 0 in
  List.iter (fun (obj, refs) -> obj_refs.(obj) <- refs) st.obj_refs;
  let tag_list = List.sort compare (List.rev st.tag_names) in
  let tags = Array.make (List.length tag_list) "" in
  List.iteri
    (fun expect (id, tname) ->
      if id <> expect then fail "non-dense tag ids";
      tags.(expect) <- tname)
    tag_list;
  let events = Array.of_list (List.rev st.events) in
  Array.iteri
    (fun i ev ->
      let check_obj what obj =
        if obj < 0 || obj >= st.n_objects then
          fail
            (Printf.sprintf "event %d: %s of out-of-range object %d" i what obj)
      in
      match (ev : Event.t) with
      | Alloc { obj; chain; tag; _ } ->
          check_obj "alloc" obj;
          if chain < 0 || chain >= Array.length chain_arr then
            fail
              (Printf.sprintf "event %d: alloc references unknown chain %d" i
                 chain);
          (* negative tag means untagged; non-negative must be in the table *)
          if tag >= Array.length tags then
            fail
              (Printf.sprintf "event %d: alloc references unknown tag %d" i tag)
      | Free { obj; _ } -> check_obj "free" obj
      | Realloc { obj; chain; tag; _ } ->
          check_obj "realloc" obj;
          if chain < 0 || chain >= Array.length chain_arr then
            fail
              (Printf.sprintf "event %d: realloc references unknown chain %d" i
                 chain);
          if tag >= Array.length tags then
            fail
              (Printf.sprintf "event %d: realloc references unknown tag %d" i tag)
      | Touch { obj; _ } -> check_obj "touch" obj)
    events;
  {
    program = st.program;
    input = st.input_name;
    events;
    chains = chain_arr;
    funcs = st.funcs;
    n_objects = st.n_objects;
    instructions = st.instructions;
    calls = st.calls;
    heap_refs = st.heap_refs;
    total_refs = st.total_refs;
    obj_refs;
    tags;
  }

let fresh_state () =
  {
    program = "?";
    input_name = "?";
    funcs = Lp_callchain.Func.create_table ();
    func_names = [];
    chains = [];
    tag_names = [];
    events = [];
    n_objects = 0;
    obj_refs = [];
    instructions = 0;
    calls = 0;
    heap_refs = 0;
    total_refs = 0;
    finished = false;
  }

let input ?(name = "<trace>") ic =
  let st = fresh_state () in
  let lineno = ref 0 in
  (try
     while not st.finished do
       incr lineno;
       parse_line ~name st !lineno (input_line ic)
     done
   with End_of_file -> ());
  finish ~name ~lineno:!lineno st

let to_string t =
  let buf = Buffer.create 65536 in
  write t ~line:(fun s ->
      Buffer.add_string buf s;
      Buffer.add_char buf '\n');
  Buffer.contents buf

let of_string ?(name = "<trace>") s =
  let st = fresh_state () in
  let lines = String.split_on_char '\n' s in
  let last = ref 0 in
  List.iteri
    (fun i line ->
      if not st.finished then begin
        last := i + 1;
        parse_line ~name st (i + 1) line
      end)
    lines;
  finish ~name ~lineno:!last st

(* -- streaming ----------------------------------------------------------------- *)

type stream = {
  s_program : string;
  s_input : string;
  s_funcs : Lp_callchain.Func.table;
  s_chain : int -> Lp_callchain.Chain.t;
  s_n_chains : unit -> int;
  s_tag : int -> string;
  s_n_tags : unit -> int;
  s_counters : unit -> int * int * int * int;
  s_refs : int -> int;
  s_n_objects : unit -> int;
  s_next : unit -> Event.t option;
}

(* The streaming parser makes one pass and never holds the event list, so
   it requires the declaration order the writer produces: dense in-order
   func/chain/tag ids, declarations before the events that reference them.
   Free/touch object ids can only be range-checked from below (the final
   object count is unknown until exhaustion); a forward reference that the
   batch parser would reject at [finish] streams through here and is the
   linter's to flag. *)
let stream ?(name = "<trace>") next_line =
  let funcs = Lp_callchain.Func.create_table () in
  let program = ref "?" and input_name = ref "?" in
  let chains = ref (Array.make 64 [||]) in
  let n_chains = ref 0 in
  let tags = ref (Array.make 16 "") in
  let n_tags = ref 0 in
  let instructions = ref 0
  and calls = ref 0
  and heap_refs = ref 0
  and total_refs = ref 0 in
  let obj_refs = Grow.create 1024 in
  let n_objects = ref 0 in
  let lineno = ref 0 in
  let ended = ref false in
  let declare what n arr id v =
    if id <> !n then
      fail ~name !lineno
        (Printf.sprintf
           "%s id %d out of order (streaming requires dense declaration order)"
           what id);
    if !n = Array.length !arr then begin
      let grown = Array.make (2 * !n) !arr.(0) in
      Array.blit !arr 0 grown 0 !n;
      arr := grown
    end;
    !arr.(id) <- v;
    incr n
  in
  let handle_line line : Event.t option =
    let int = int_field ~name !lineno in
    match String.split_on_char ' ' (String.trim line) with
    | [ "" ] -> None
    | "trace" :: p :: rest ->
        program := unescape_name ~name !lineno p;
        input_name := String.concat " " rest;
        None
    | "func" :: id :: rest ->
        let id = int ~field:"func-id" id in
        let fname = name_of_tokens ~name !lineno rest in
        if Lp_callchain.Func.intern funcs fname <> id then
          fail ~name !lineno
            (Printf.sprintf
               "func id %d out of order (streaming requires dense declaration \
                order)"
               id);
        None
    | "chain" :: id :: fs ->
        let chain = Array.of_list (List.map (int ~field:"chain-func") fs) in
        declare "chain" n_chains chains (int ~field:"chain-id" id) chain;
        None
    | "tag" :: id :: rest ->
        declare "tag" n_tags tags
          (int ~field:"tag-id" id)
          (name_of_tokens ~name !lineno rest);
        None
    | [ "counters"; i; c; h; t ] ->
        instructions := int ~field:"instructions" i;
        calls := int ~field:"calls" c;
        heap_refs := int ~field:"heap-refs" h;
        total_refs := int ~field:"total-refs" t;
        None
    | [ "a"; obj; size; chain; key; tag; refs ] ->
        let obj = int ~field:"obj" obj in
        check_obj ~name !lineno "alloc" obj;
        let chain = int ~field:"chain" chain in
        if chain < 0 || chain >= !n_chains then
          fail ~name !lineno
            (Printf.sprintf "alloc references unknown chain %d" chain);
        let tag = int ~field:"tag" tag in
        if tag >= !n_tags then
          fail ~name !lineno (Printf.sprintf "alloc references unknown tag %d" tag);
        Grow.set obj_refs obj (int ~field:"refs" refs);
        if obj >= !n_objects then n_objects := obj + 1;
        Some
          (Event.Alloc
             { obj; size = int ~field:"size" size; chain; key = int ~field:"key" key; tag })
    | "f" :: obj :: rest ->
        let obj = int ~field:"obj" obj in
        check_obj ~name !lineno "free" obj;
        (match rest with
        | [] -> Some (Event.Free { obj; size = -1 })
        | [ size ] -> Some (Event.Free { obj; size = int ~field:"size" size })
        | _ -> fail ~name !lineno (Printf.sprintf "unrecognised line %S" line))
    | [ "g"; obj; old_size; new_size; chain; key; tag ] ->
        let obj = int ~field:"obj" obj in
        check_obj ~name !lineno "realloc" obj;
        let chain = int ~field:"chain" chain in
        if chain < 0 || chain >= !n_chains then
          fail ~name !lineno
            (Printf.sprintf "realloc references unknown chain %d" chain);
        let tag = int ~field:"tag" tag in
        if tag >= !n_tags then
          fail ~name !lineno
            (Printf.sprintf "realloc references unknown tag %d" tag);
        Some
          (Event.Realloc
             { obj; old_size = int ~field:"old-size" old_size;
               new_size = int ~field:"new-size" new_size; chain;
               key = int ~field:"key" key; tag })
    | [ "r"; obj; count ] ->
        let obj = int ~field:"obj" obj in
        check_obj ~name !lineno "touch" obj;
        Some (Event.Touch { obj; count = int ~field:"count" count })
    | [ "end" ] ->
        ended := true;
        None
    | _ -> fail ~name !lineno (Printf.sprintf "unrecognised line %S" line)
  in
  let rec read_next () =
    if !ended then None
    else
      match next_line () with
      | None -> fail ~name !lineno "missing 'end' line"
      | Some line -> (
          incr lineno;
          match handle_line line with
          | Some _ as ev -> ev
          | None -> if !ended then None else read_next ())
  in
  (* Drain the header eagerly so the interned tables and counters are
     available before the first event; the event that terminated the
     header drain is held until the first [s_next]. *)
  let pending = ref (read_next ()) in
  {
    s_program = !program;
    s_input = !input_name;
    s_funcs = funcs;
    s_chain =
      (fun id ->
        if id < 0 || id >= !n_chains then
          fail ~name !lineno (Printf.sprintf "unknown chain %d" id)
        else !chains.(id));
    s_n_chains = (fun () -> !n_chains);
    s_tag =
      (fun id ->
        if id < 0 || id >= !n_tags then
          fail ~name !lineno (Printf.sprintf "unknown tag %d" id)
        else !tags.(id));
    s_n_tags = (fun () -> !n_tags);
    s_counters = (fun () -> (!instructions, !calls, !heap_refs, !total_refs));
    s_refs = Grow.get obj_refs;
    s_n_objects = (fun () -> !n_objects);
    s_next =
      (fun () ->
        match !pending with
        | Some _ as ev ->
            pending := None;
            ev
        | None -> read_next ());
  }
