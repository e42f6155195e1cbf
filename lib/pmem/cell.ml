(** A simulated persistent-memory word.

    The [volatile] value is what loads, stores and CAS observe: caches on
    the modelled machine are coherent, so every thread sees the same
    volatile value instantly (the "shared cache" model the paper targets,
    Section 1 / property D3).  The [persisted] value is what survives a
    crash.  [flush] copies volatile to persisted; a crash either discards
    the volatile value (resetting it to [persisted]) or — modelling an
    uncontrolled cache-line eviction — writes it back first.

    Each cell belongs to a persist {!line}: write-back and crash
    eviction happen to the line as a unit, so a cell's [line] determines
    which other words a [flush] of it persists for free.  The line holds
    its members itself, so a heap reaches a line's cells from its id in
    one table load and allocates nothing per line beyond the record.

    The [name] is a thunk (see [Memory_intf.S.alloc]): only observers
    and printers force it, so allocating a cell builds no string.  A
    block element shares its block's thunk and records its index in
    [elem], so allocating a block builds no closure per element. *)

type line = { lid : int; mutable slot : int; mutable members : members }

and 'a t = {
  id : int;
  name : unit -> string;
  elem : int;
  line : line;
  mutable volatile : 'a;
  mutable persisted : 'a;
  mutable dirty : bool;
}

and members = Nil | One : 'a t -> members | Cons : 'a t * members -> members

(** Existential wrapper so a heap can track cells of every type. *)
type packed = Packed : 'a t -> packed

let clean = -1
let line_is_dirty l = l.slot >= 0
let value_equal (a : 'a) (b : 'a) = a == b
let is_dirty c = c.dirty
let line c = c.line
let line_id c = c.line.lid
let name c =
  if c.elem < 0 then c.name ()
  else Dssq_memory.Memory_intf.Name.element c.name c.elem ()

let pp_summary fmt (Packed c) =
  Format.fprintf fmt "cell#%d(%s)@L%d%s" c.id (name c) c.line.lid
    (if c.dirty then "*" else "")
