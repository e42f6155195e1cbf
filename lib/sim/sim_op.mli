(** The atomic memory events a simulated thread can perform — the
    granularity at which the scheduler interleaves and crashes fall. *)

open Dssq_pmem

type 'a t =
  | Read : 'a Cell.t -> 'a t
  | Write : 'a Cell.t * 'a -> unit t
  | Cas : 'a Cell.t * 'a * 'a -> bool t
  | Flush : 'a Cell.t -> unit t
      (** write-back, or persist-buffer enqueue, per the heap's policy *)
  | Drain : unit t
      (** persist barrier: write back the thread's pending lines *)
  | Fence : unit t
  | Yield : unit t  (** scheduling point with no memory side effect *)

val apply : Heap.t -> 'a t -> 'a
(** Execute one event directly against the heap. *)

(** Cost classes for the discrete-event throughput model. *)
type kind = Read | Write | Cas | Flush | Drain | Fence | Yield

val kind : 'a t -> kind

val line : 'a t -> int
(** Id of the persist line the event touches, or -1 if none — the unit
    of cache-line contention and write-back. *)

val cell_id : 'a t -> int option
(** Id of the cell the event touches, if any — the unit at which plain
    reads/writes conflict (finer than {!line}). *)
