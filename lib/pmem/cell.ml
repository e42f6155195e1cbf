(** A simulated persistent-memory word.

    The [volatile] value is what loads, stores and CAS observe: caches on
    the modelled machine are coherent, so every thread sees the same
    volatile value instantly (the "shared cache" model the paper targets,
    Section 1 / property D3).  The [persisted] value is what survives a
    crash.  [flush] copies volatile to persisted; a crash either discards
    the volatile value (resetting it to [persisted]) or — modelling an
    uncontrolled cache-line eviction — writes it back first.

    Each cell belongs to a persist {!Line}: write-back and crash
    eviction happen to the line as a unit, so a cell's [line] determines
    which other words a [flush] of it persists for free.

    The [name] is a thunk (see [Memory_intf.S.alloc]): only observers
    and printers force it, so allocating a cell builds no string. *)

module Line = Dssq_memory.Memory_intf.Line

type 'a t = {
  id : int;
  name : unit -> string;
  line : Line.t;
  mutable volatile : 'a;
  mutable persisted : 'a;
  mutable dirty : bool;
}

(** Existential wrapper so a heap can track cells of every type. *)
type packed = Packed : 'a t -> packed

let value_equal (a : 'a) (b : 'a) = a == b
let is_dirty c = c.dirty
let line c = c.line
let line_id c = c.line.Line.id
let name c = c.name ()

let pp_summary fmt (Packed c) =
  Format.fprintf fmt "cell#%d(%s)@L%d%s" c.id (name c) c.line.Line.id
    (if c.dirty then "*" else "")
