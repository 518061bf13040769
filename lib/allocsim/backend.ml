module type BACKEND = sig
  type t

  val name : string
  val uses_prediction : bool
  val create : ?base:int -> unit -> t
  val release : t -> unit
  val alloc : t -> size:int -> predicted:bool -> int
  val free : t -> int -> unit

  val realloc :
    (t -> addr:int -> old_size:int -> new_size:int -> predicted:bool -> int)
    option

  val charge_alloc : t -> int -> unit
  val allocs : t -> int
  val frees : t -> int
  val alloc_instr : t -> int
  val free_instr : t -> int
  val max_heap_size : t -> int
  val extra : t -> Metrics.extra
  val check_invariants : t -> unit
end

type t = (module BACKEND)

let name (module B : BACKEND) = B.name
let uses_prediction (module B : BACKEND) = B.uses_prediction
