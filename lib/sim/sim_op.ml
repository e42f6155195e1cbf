(** The atomic memory events a simulated thread can perform.

    Each constructor corresponds to one failure-atomic step of the
    modelled machine; the scheduler interleaves threads at exactly this
    granularity, and a crash can fall between any two of them. *)

open Dssq_pmem

type 'a t =
  | Read : 'a Cell.t -> 'a t
  | Write : 'a Cell.t * 'a -> unit t
  | Cas : 'a Cell.t * 'a * 'a -> bool t
  | Flush : 'a Cell.t -> unit t
      (** write-back, or persist-buffer enqueue, per the heap's policy *)
  | Drain : unit t
      (** persist barrier: write back every line in the thread's persist
          buffer and fence once *)
  | Fence : unit t
  | Yield : unit t  (** scheduling point with no memory side effect *)

let apply : type a. Heap.t -> a t -> a =
 fun heap op ->
  match op with
  | Read c -> Heap.read heap c
  | Write (c, v) -> Heap.write heap c v
  | Cas (c, expected, desired) -> Heap.cas heap c ~expected ~desired
  | Flush c -> Heap.flush heap c
  | Drain -> Heap.drain heap
  | Fence -> Heap.fence heap
  | Yield -> ()

(** Cost classes for the discrete-event throughput model. *)
type kind = Read | Write | Cas | Flush | Drain | Fence | Yield

let kind : type a. a t -> kind = function
  | Read _ -> Read
  | Write _ -> Write
  | Cas _ -> Cas
  | Flush _ -> Flush
  | Drain -> Drain
  | Fence -> Fence
  | Yield -> Yield

(** Id of the persist {e line} an operation targets, or -1 for the
    events that target none.  This is the unit at which the throughput
    model serializes conflicting accesses (cache line ownership) and at
    which flushes write back; at line size 1 it is in bijection with
    cell ids, recovering the old per-cell behaviour. *)
let line : type a. a t -> int = function
  | Read c -> Cell.line_id c
  | Write (c, _) -> Cell.line_id c
  | Cas (c, _, _) -> Cell.line_id c
  | Flush c -> Cell.line_id c
  | Drain -> -1 (* targets the thread's whole pending-line set *)
  | Fence -> -1
  | Yield -> -1

(** Id of the {e cell} an operation targets — finer than its
    {!line}: two writes to distinct cells of one line commute, while
    a flush conflicts with anything on its line.  The explorer's
    independence relation is keyed on both. *)
let cell_id : type a. a t -> int option = function
  | Read c -> Some c.Cell.id
  | Write (c, _) -> Some c.Cell.id
  | Cas (c, _, _) -> Some c.Cell.id
  | Flush c -> Some c.Cell.id
  | Drain -> None
  | Fence -> None
  | Yield -> None
