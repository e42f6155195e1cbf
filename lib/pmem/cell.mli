(** A simulated persistent-memory word with a volatile and a persisted
    copy.  See [Heap] for the operations; the record is exposed so that
    the scheduler and tests can inspect cells directly. *)

module Line = Dssq_memory.Memory_intf.Line

type 'a t = {
  id : int;
  name : unit -> string;
      (** diagnostic name, computed when read (see {!name}); a block
          element holds its block's name *)
  elem : int;  (** index within its block, or -1 for a scalar cell *)
  line : Line.t;  (** persist line the word lives in *)
  mutable volatile : 'a;  (** what loads/stores/CAS observe (coherent) *)
  mutable persisted : 'a;  (** what survives a crash *)
  mutable dirty : bool;  (** volatile differs from persisted *)
}

type packed = Packed : 'a t -> packed
(** Existential wrapper so a heap can track cells of every type. *)

val value_equal : 'a -> 'a -> bool
(** Physical equality — the comparison CAS uses (exact for immediates). *)

val is_dirty : 'a t -> bool

val line : 'a t -> Line.t

val line_id : 'a t -> int

val name : 'a t -> string
(** The cell's diagnostic name, built now from its deferred thunk:
    [name[i]] for element [i] of a block named [name]. *)

val pp_summary : Format.formatter -> packed -> unit
