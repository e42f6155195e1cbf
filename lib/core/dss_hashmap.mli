(** A detectable persistent hash map composed from detectable cells —
    open addressing with linear probing, every mutation a detectable CAS
    on one slot, plus one persistent announcement word per thread that
    lets [resolve] find and cross-check the slot operation.  No recovery
    procedure.

    Keys are in [1 .. 2^20-1], values in [0 .. 2^20-1]; capacity is
    fixed. *)

exception Full

(** The map's calls, as {!adapter} needs them. *)
module type OPS = sig
  type t

  type resolved =
    | Nothing
    | Put_pending of int * int
    | Put_done of int * int
    | Remove_pending of int
    | Remove_done of int

  val find : t -> int -> int option

  val put : t -> tid:int -> int -> int -> unit
  (** Detectable insert-or-update; retry exactly-once via {!resolve}.
      @raise Full when no slot is available. *)

  val remove : t -> tid:int -> int -> unit
  (** Detectable removal; no-op if the key is absent. *)

  val resolve : t -> tid:int -> resolved
end

module Make (M : Dssq_memory.Memory_intf.S) : sig
  include OPS

  val pp_resolved : Format.formatter -> resolved -> unit

  val create : nthreads:int -> nbuckets:int -> unit -> t

  val mem : t -> int -> bool

  val recover : t -> unit
  (** No-op: announcements and cells are self-describing. *)

  val stats : t -> Detectable_intf.stats
  (** Composed persistent footprint: one cell per bucket (state word +
      per-thread announce words) plus the map's own per-thread
      announcement word. *)

  val to_alist : t -> (int * int) list
  (** Sorted (key, value) pairs; quiescent use only. *)

  val length : t -> int
end

val adapter :
  (module OPS with type t = 'h) ->
  'h ->
  (Dssq_spec.Specs.Map.op, Dssq_spec.Specs.Map.response)
  Detectable_intf.adapter
(** The map's surface over the specification's alphabet.  [put] and
    [remove] are fused detectable calls with no prep/exec split, so
    [prep] does nothing and [exec] is [base]; [resolve] names the
    pending or completed mutation for an exactly-once retry. *)
