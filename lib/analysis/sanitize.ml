open Diagnostic

exception Violation of Diagnostic.t

let rules =
  [
    {
      id = "shadow-overlap";
      default_severity = Error;
      doc = "a newly placed block overlaps a live block";
    };
    {
      id = "shadow-unmapped-free";
      default_severity = Error;
      doc = "a free at an address with no live block";
    };
    {
      id = "shadow-misaligned";
      default_severity = Error;
      doc = "a block address off the required alignment";
    };
    {
      id = "shadow-boundary";
      default_severity = Error;
      doc = "a block straddling the arena/fallback boundary";
    };
  ]

module Shadow = Map.Make (Int)

let wrap ?(alignment = 1) ?boundary (module B : Lp_allocsim.Backend.BACKEND) :
    Lp_allocsim.Backend.t =
  if alignment < 1 then invalid_arg "Sanitize.wrap: alignment must be >= 1";
  (module struct
    type t = {
      inner : B.t;
      mutable shadow : int Shadow.t;  (* block start -> payload size *)
      mutable ops : int;  (* allocs + frees so far, the diagnostic anchor *)
    }

    (* the registry name and every metric delegate to the wrapped backend,
       so a sanitized replay is byte-identical to an unsanitized one *)
    let name = B.name
    let uses_prediction = B.uses_prediction
    let create ?base () =
      { inner = B.create ?base (); shadow = Shadow.empty; ops = 0 }

    let release t = B.release t.inner

    let violation t ~rule ~site message =
      raise
        (Violation
           (make ~rule ~severity:Error ~event:t.ops ~site
              (Printf.sprintf "%s: %s" B.name message)))

    let range addr size = Printf.sprintf "[%d, %d)" addr (addr + size)

    (* the placement rules a block must satisfy on entry to the shadow
       heap, shared by alloc and the realloc remap *)
    let check_placement t ~addr ~size =
      (if alignment > 1 && addr mod alignment <> 0 then
         violation t ~rule:"shadow-misaligned" ~site:(range addr size)
           (Printf.sprintf "block at %d is not %d-byte aligned" addr alignment));
      (match boundary with
      | Some b when addr < b && addr + size > b ->
          violation t ~rule:"shadow-boundary" ~site:(range addr size)
            (Printf.sprintf "block straddles the arena/fallback boundary at %d" b)
      | _ -> ());
      (* live blocks are pairwise disjoint, so the only candidate overlap
         is the highest-addressed block starting below our end *)
      match Shadow.find_last_opt (fun a -> a < addr + size) t.shadow with
      | Some (a, s) when a + s > addr ->
          violation t ~rule:"shadow-overlap" ~site:(range addr size)
            (Printf.sprintf "new block overlaps live block %s" (range a s))
      | _ -> ()

    let alloc t ~size ~predicted =
      let addr = B.alloc t.inner ~size ~predicted in
      check_placement t ~addr ~size;
      t.shadow <- Shadow.add addr size t.shadow;
      t.ops <- t.ops + 1;
      addr

    let free t addr =
      (match Shadow.find_opt addr t.shadow with
      | None ->
          violation t ~rule:"shadow-unmapped-free" ~site:(string_of_int addr)
            (Printf.sprintf "free at unmapped address %d" addr)
      | Some _ -> t.shadow <- Shadow.remove addr t.shadow);
      t.ops <- t.ops + 1;
      B.free t.inner addr

    (* a native resize remaps the shadow block: unmap the old address
       (flagging a realloc of an unmapped block exactly like a free), let
       the inner backend place it, then re-check and re-map at the
       possibly-moved address.  A [None] inner hook stays [None] so the
       driver's free+alloc fallback flows through the checked [free] and
       [alloc] above. *)
    let realloc =
      match B.realloc with
      | None -> None
      | Some f ->
          Some
            (fun t ~addr ~old_size ~new_size ~predicted ->
              (match Shadow.find_opt addr t.shadow with
              | None ->
                  violation t ~rule:"shadow-unmapped-free"
                    ~site:(string_of_int addr)
                    (Printf.sprintf "realloc at unmapped address %d" addr)
              | Some _ -> t.shadow <- Shadow.remove addr t.shadow);
              let new_addr = f t.inner ~addr ~old_size ~new_size ~predicted in
              check_placement t ~addr:new_addr ~size:new_size;
              t.shadow <- Shadow.add new_addr new_size t.shadow;
              t.ops <- t.ops + 1;
              new_addr)

    let charge_alloc t n = B.charge_alloc t.inner n
    let allocs t = B.allocs t.inner
    let frees t = B.frees t.inner
    let alloc_instr t = B.alloc_instr t.inner
    let free_instr t = B.free_instr t.inner
    let max_heap_size t = B.max_heap_size t.inner
    let extra t = B.extra t.inner

    let check_invariants t =
      B.check_invariants t.inner;
      let shadow_live = Shadow.cardinal t.shadow in
      let backend_live = B.allocs t.inner - B.frees t.inner in
      if shadow_live <> backend_live then
        failwith
          (Printf.sprintf
             "Sanitize: shadow holds %d live blocks but %s counts %d"
             shadow_live B.name backend_live)
  end)

let for_backend ?alignment ?arena_config backend =
  let boundary =
    if Lp_allocsim.Backend.name backend = "arena" then
      let c =
        Option.value arena_config ~default:Lp_allocsim.Arena.default_config
      in
      Some (c.Lp_allocsim.Arena.n_arenas * c.Lp_allocsim.Arena.arena_size)
    else None
  in
  wrap ?alignment ?boundary backend
