(** A simulated persistent-memory word with a volatile and a persisted
    copy.  See [Heap] for the operations; the records are exposed so that
    the scheduler and tests can inspect cells directly. *)

type line = {
  lid : int;  (** dense, in allocation order *)
  mutable slot : int;
      (** the line's slot in its heap's dirty-line index while a member
          holds an unpersisted store, or {!clean} *)
  mutable members : members;  (** the cells on the line, most recent first *)
}
(** One persist line of the simulated heap: write-back and crash
    eviction happen to a line as a unit. *)

and 'a t = {
  id : int;
  name : unit -> string;
      (** diagnostic name, computed when read (see {!name}); a block
          element holds its block's name *)
  elem : int;  (** index within its block, or -1 for a scalar cell *)
  line : line;  (** persist line the word lives in *)
  mutable volatile : 'a;  (** what loads/stores/CAS observe (coherent) *)
  mutable persisted : 'a;  (** what survives a crash *)
  mutable dirty : bool;  (** volatile differs from persisted *)
}

(** A line's member cells, most recent first: a list over cells of any
    type, one block per member and no {!packed} box.  [One c] holds the
    line's oldest member, so a line of one cell (every line, at line
    size 1) pays no list cell; [Cons (c, Nil)] never occurs. *)
and members =
  | Nil
  | One : 'a t -> members
  | Cons : 'a t * members -> members

type packed = Packed : 'a t -> packed
(** Existential wrapper so a heap can track cells of every type. *)

val clean : int
(** The {!line.slot} of a line no member of which is dirty. *)

val line_is_dirty : line -> bool

val value_equal : 'a -> 'a -> bool
(** Physical equality — the comparison CAS uses (exact for immediates). *)

val is_dirty : 'a t -> bool

val line : 'a t -> line

val line_id : 'a t -> int

val name : 'a t -> string
(** The cell's diagnostic name, built now from its deferred thunk:
    [name[i]] for element [i] of a block named [name]. *)

val pp_summary : Format.formatter -> packed -> unit
