(** Persistent multi-word CAS (Wang, Levandoski & Larson) — the substrate
    of the General/Fast CASWithEffect baselines.  Descriptor-based:
    RDCSS-conditioned installs in canonical order with helping, a status
    word as the linearization/persistence point, per-word finalize, and
    an active flag bounding what post-crash recovery may roll forward or
    back.  {e Private} words (the Fast optimization) skip installation
    and are written at finalize by their owner only.

    Words are allocated through {!Make.alloc} and addressed by small
    ints; values must be non-negative and below 2^52. *)

val undecided : int
val succeeded : int
val failed : int

exception Descriptor_pool_exhausted of int

module Make (M : Dssq_memory.Memory_intf.S) : sig
  type t

  val create : ?ring:int -> ?max_width:int -> nwords:int -> nthreads:int -> unit -> t
  (** [ring] descriptors per thread (default 64), [max_width] words per
      operation (default 4). *)

  val alloc : t -> ?name:(unit -> string) -> int -> int
  (** Allocate a managed word with an initial (persisted) value; returns
      its address. *)

  val read : t -> tid:int -> int -> int
  (** PMwCAS-aware read: helps any operation in flight, returns a plain
      value. *)

  val write_quiet : t -> int -> int -> unit
  (** Direct flushed store — initialization and owner-private words not
      currently targeted by any descriptor. *)

  val flush_word : t -> int -> unit

  val cell : t -> int -> int M.cell
  (** Raw cell access for recovery-time inspection (quiescent use). *)

  val pmwcas :
    t -> tid:int -> (int * int * int * [ `Shared | `Private ]) list -> bool
  (** [pmwcas t ~tid entries] atomically and persistently applies every
      [(addr, expected, desired, kind)] update, or none.  Private entries
      must target words only [tid] writes; their expected value is not
      validated. *)

  val cas1 : t -> tid:int -> int -> expected:int -> desired:int -> bool
  (** Single-word CAS on a managed word (helps as needed; no flush of its
      own). *)

  val recover : t -> unit
  (** Post-crash, single-threaded: roll every active descriptor forward
      (Succeeded) or back, including private-word redo; resets the
      volatile descriptor pools. *)
end
