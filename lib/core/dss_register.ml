(** A detectable recoverable read/write register — [D<register>] of
    Section 2.2: an instantiation of the generic {!Detectable} engine
    over the register specification ([Dssq_spec.Specs.Register]).  The
    announce records, helping, provenance-carrying state word and
    [resolve] all come from the shared functor; this file only maps the
    generic vocabulary onto the register's. *)

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
  val read : t -> tid:int -> int
  val write : t -> tid:int -> int -> unit
  val prep_write : t -> tid:int -> int -> unit
  val exec_write : t -> tid:int -> unit
  val prep_read : t -> tid:int -> unit
  val exec_read : t -> tid:int -> int
  val resolve : t -> tid:int -> resolved
  val recover : t -> unit
  val stats : t -> Detectable_intf.stats
end

module Make (M : Dssq_memory.Memory_intf.S) = struct
  module E = Detectable.Make_any (M)
  module R = Dssq_spec.Specs.Register

  (* Values fit beside provenance in one packed 64-bit word — the range
     of the original packed-word register, which the test suite keeps
     as an equivalence oracle, so both reject exactly the same inputs. *)
  let value_bits = 40
  let value_mask = (1 lsl value_bits) - 1

  type t = (int, R.op, R.response) E.t

  type resolved =
    | Nothing
    | Write_pending of int
    | Write_done of int
    | Read_pending
    | Read_done of int

  let pp_resolved fmt = function
    | Nothing -> Format.pp_print_string fmt "(_|_, _|_)"
    | Write_pending v -> Format.fprintf fmt "(write %d, _|_)" v
    | Write_done v -> Format.fprintf fmt "(write %d, OK)" v
    | Read_pending -> Format.pp_print_string fmt "(read, _|_)"
    | Read_done v -> Format.fprintf fmt "(read, %d)" v

  let create ?(init = 0) ~nthreads () =
    if init < 0 || init > value_mask then invalid_arg "Dss_register.create";
    E.create ~name:(fun () -> "register")
      ~placement:Dssq_memory.Memory_intf.Line.Isolated ~init ~nthreads
      (R.spec ())

  (* ------------------------- non-detectable ------------------------- *)

  let read t ~tid =
    match E.base t ~tid R.Read with R.Value v -> v | R.Ok -> assert false

  let write t ~tid v =
    if v < 0 || v > value_mask then invalid_arg "Dss_register.write";
    match E.base t ~tid (R.Write v) with R.Ok -> () | R.Value _ -> assert false

  (* --------------------------- detectable --------------------------- *)

  let prep_write t ~tid v =
    if v < 0 || v > value_mask then invalid_arg "Dss_register.prep_write";
    E.prep t ~tid (R.Write v)

  let exec_write t ~tid = ignore (E.exec t ~tid)
  let prep_read t ~tid = E.prep t ~tid R.Read

  let exec_read t ~tid =
    match E.exec t ~tid with R.Value v -> v | R.Ok -> assert false

  (* ---------------------------- detection --------------------------- *)

  let resolve t ~tid =
    match E.resolve t ~tid with
    | Detectable_intf.Nothing -> Nothing
    | Pending (R.Write v) -> Write_pending v
    | Done (R.Write v, _) -> Write_done v
    | Pending R.Read -> Read_pending
    | Done (R.Read, R.Value v) -> Read_done v
    | Done (R.Read, R.Ok) -> assert false

  let recover = E.recover
  let stats = E.stats
end

let adapter (type r) (module R : S with type t = r) (r : r) :
    (Dssq_spec.Specs.Register.op, Dssq_spec.Specs.Register.response)
    Detectable_intf.adapter =
  let open Dssq_spec.Specs.Register in
  {
    prep =
      (fun ~tid -> function
        | Write v -> R.prep_write r ~tid v | Read -> R.prep_read r ~tid);
    exec =
      (fun ~tid -> function
        | Write _ ->
            R.exec_write r ~tid;
            Ok
        | Read -> Value (R.exec_read r ~tid));
    base =
      (fun ~tid -> function
        | Write v ->
            R.write r ~tid v;
            Ok
        | Read -> Value (R.read r ~tid));
    resolve =
      (fun ~tid : (op, response) Detectable_intf.resolved ->
        match R.resolve r ~tid with
        | R.Nothing -> Nothing
        | R.Write_pending v -> Pending (Write v)
        | R.Write_done v -> Done (Write v, Ok)
        | R.Read_pending -> Pending Read
        | R.Read_done v -> Done (Read, Value v));
  }
