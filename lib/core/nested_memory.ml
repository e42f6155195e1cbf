(** Application-managed nesting, made literal.

    Section 2.2 of the paper: "Any base object of type T in this
    algorithm can be replaced with a strictly linearizable implementation
    of either T or D<T>, since D<T> provides all the non-detectable
    operations of T.  Thus, D<queue> can be constructed using
    implementations of D<read/write register> and D<CAS>."

    This functor does exactly that replacement: it presents the [MEMORY]
    interface, but every cell is a {!Dss_cell} detectable object over the
    base memory.  Instantiating [Dss_queue.Make (Nested_memory.Make (...))]
    therefore runs the unmodified DSS queue algorithm where every base
    word is itself a [D<register>/D<CAS>] object — the nesting the paper
    describes, with the outer object using the inner objects'
    non-detectable operations, while the inner objects' own [prep]/[exec]/
    [resolve] remain available to the application (see
    [test/test_nested.ml], which exercises both levels at once).

    [Config.nthreads] bounds the thread ids that may use the inner
    objects' detectable operations. *)

module type CONFIG = sig
  val nthreads : int
end

module Make (Base : Dssq_memory.Memory_intf.S) (Config : CONFIG) :
  Dssq_memory.Memory_intf.S with type 'a cell = 'a Dss_cell.Make(Base).t =
struct
  module C = Dss_cell.Make (Base)

  type 'a cell = 'a C.t

  (* Dss_cell spreads one logical word over several base cells, so inner
     placement is the base memory's business; the [placement] hint has no
     meaningful nested analogue and is ignored. *)
  let alloc ?name ?placement v =
    ignore placement;
    C.create ?name ~nthreads:Config.nthreads v

  let alloc_block ?name vs =
    List.mapi
      (fun i v ->
        alloc
          ?name:
            (Option.map
               (fun n -> Dssq_memory.Memory_intf.Name.element n i)
               name)
          v)
      vs

  let read c = C.read c
  let write c v = C.write c v
  let cas c ~expected ~desired = C.cas c ~expected ~desired
  let flush c = C.flush c
  let fence () = Base.fence ()
  let drain () = Base.drain ()
end
