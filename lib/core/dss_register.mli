(** A detectable recoverable read/write register — [D<register>] with no
    recovery procedure and no auxiliary system state (Section 2.2's
    base-object story): the {!Detectable} engine instantiated on the
    register specification.

    Writers {e help} persist the previous writer's completion before
    destroying its evidence, which is what keeps [resolve] sound across
    overwrites.  Values are in [0 .. 2^40-1] (the range of the original
    packed-word register, which the test suite keeps as the oracle of an
    equivalence property); at most 4096 threads. *)

module type S = sig
  type t

  type resolved =
    | Nothing
    | Write_pending of int
    | Write_done of int
    | Read_pending
    | Read_done of int

  val pp_resolved : Format.formatter -> resolved -> unit

  val create : ?init:int -> nthreads:int -> unit -> t

  (** {1 Non-detectable operations} *)

  val read : t -> tid:int -> int
  val write : t -> tid:int -> int -> unit

  (** {1 Detectable operations} *)

  val prep_write : t -> tid:int -> int -> unit
  val exec_write : t -> tid:int -> unit
  val prep_read : t -> tid:int -> unit
  val exec_read : t -> tid:int -> int
  val resolve : t -> tid:int -> resolved

  val recover : t -> unit
  (** Restores volatile sequence counters; no persistent repairs —
      detection state is maintained inline by helping. *)

  val stats : t -> Detectable_intf.stats
  (** Persistent footprint: one register word plus one X word per
      thread. *)
end

module Make (M : Dssq_memory.Memory_intf.S) : S

val adapter :
  (module S with type t = 'r) ->
  'r ->
  (Dssq_spec.Specs.Register.op, Dssq_spec.Specs.Register.response)
  Detectable_intf.adapter
(** The register's [D<register>] surface over the specification's
    alphabet ({!Detectable_intf.adapter}). *)
