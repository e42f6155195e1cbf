(** A generic detectable cell: [D<register>] + [D<CAS>] over values of
    any type, the building block for application-managed nesting
    (Section 2.2).  Boxed provenance instead of bit packing; otherwise
    the same helping protocol as {!Dss_register}.  No recovery procedure
    and no auxiliary state.

    CAS comparisons are physical equality on the exact value previously
    read (exact for immediates, identity for boxed values — the standard
    boxed-CAS idiom, ABA-immune on the payload). *)

module Make (M : Dssq_memory.Memory_intf.S) : sig
  type 'a t

  (** The [(A[p], R[p])] pair of [D<cell>]. *)
  type 'a resolved =
    | Nothing
    | Write_pending of 'a
    | Write_done of 'a
    | Cas_pending of 'a * 'a
    | Cas_done of 'a * 'a * bool
    | Read_pending
    | Read_done of 'a

  val create : ?name:Dssq_memory.Memory_intf.Name.t -> nthreads:int -> 'a -> 'a t

  (** {1 Non-detectable operations} *)

  val read : 'a t -> 'a
  val write : 'a t -> 'a -> unit
  val cas : 'a t -> expected:'a -> desired:'a -> bool
  val flush : 'a t -> unit

  val drain : unit -> unit
  (** Drain the calling thread's persist buffer (no-op under eager
      flushing); exposed so composites can end a persistence epoch. *)

  (** {1 Detectable operations} *)

  val prep_write : 'a t -> tid:int -> 'a -> unit
  val exec_write : 'a t -> tid:int -> unit
  val prep_cas : 'a t -> tid:int -> expected:'a -> desired:'a -> unit
  val exec_cas : 'a t -> tid:int -> bool
  val prep_read : 'a t -> tid:int -> unit
  val exec_read : 'a t -> tid:int -> 'a
  val resolve : 'a t -> tid:int -> 'a resolved

  val recover : 'a t -> unit
  (** No-op; interface symmetry. *)
end
