(** Shared interface vocabulary for detectable recoverable objects.

    Every detectable object in [lib/core] exposes the same conceptual
    surface — operations, [resolve] (the [(A[p], R[p])] pair of the DSS
    transformation), a recovery entry point, and a persistent-footprint
    [stats] record — but before the {!Detectable} functor each object
    spelled the whole signature out again in its own [.mli].  The module
    types here are the single shared copy. *)

(** Static persistent-word footprint of one object instance — the
    denominator-free side of the [persistent_words_per_op] accounting.
    Compare against the space lower bounds of Ben-Baruch, Hendler &
    Rusanovsky (PAPERS.md): a detectable object needs announce state per
    process; the interesting question is how little. *)
type stats = {
  state_words : int;
      (** persistent words holding the object's own state (1 for every
          flat single-word object; head + tail for the queue, …) *)
  announce_words : int;
      (** persistent announce words — one X word per thread in every
          implementation here *)
}

let stats_to_assoc s =
  [ ("state_words", s.state_words); ("announce_words", s.announce_words) ]

(** Outcome of [resolve] for generic (functor-made) objects: the
    [(A[p], R[p])] pair with [Pending op] for [(op, bottom)]. *)
type ('op, 'r) resolved = Nothing | Pending of 'op | Done of 'op * 'r

let pp_resolved pp_op pp_r fmt = function
  | Nothing -> Format.pp_print_string fmt "(_|_, _|_)"
  | Pending op -> Format.fprintf fmt "(%a, _|_)" pp_op op
  | Done (op, r) -> Format.fprintf fmt "(%a, %a)" pp_op op pp_r r

(** What {!Detectable.Make} produces: the full DSS interface of the base
    specification, type-checked once for every object.  [prep]/[exec]
    are the detectable pair (Axioms 1-2), [base] the plain operation
    (Axiom 4), [resolve] Axiom 3. *)
module type GENERIC = sig
  type state
  type op
  type response
  type t

  val name : string

  val create :
    ?name:string -> ?combine:bool -> ?init:state -> nthreads:int -> unit -> t
  (** [name] labels the persistent cells in traces; [init] overrides the
      specification's initial state; [combine] (default [false]) routes
      [exec] through the flat-combining batch-apply path — one persist
      epoch covers every operation a combiner folds. *)

  val prep : t -> tid:int -> op -> unit
  (** Announce [op]: durable on return (persistence point). *)

  val exec : t -> tid:int -> response
  (** Apply the announced operation; exactly-once across crashes when
      retried through {!resolve}.  Durable on return. *)

  val base : t -> tid:int -> op -> response
  (** The plain, non-detectable operation (Axiom 4). *)

  val resolve : t -> tid:int -> (op, response) resolved
  (** Total and idempotent; reads only the caller's announce word plus,
      at worst, the state word. *)

  val recover : t -> unit
  (** Restore volatile per-thread sequence counters from the persisted
      announce records.  No persistent repairs are needed: helping keeps
      detection state consistent inline. *)

  val stats : t -> stats

  val combining_stats : t -> int * int
  (** Volatile flat-combining telemetry: [(passes, ops_folded)]; the
      mean batch size is the ratio.  Both 0 with combining off. *)

  val peek : t -> state  (** current abstract state; quiescent use only *)
end

(** The per-object hook for linked structures (queue, stack) whose exec
    step is a multi-word pointer swing rather than one CAS on a boxed
    state word.  The generic engine cannot own that swing, so those
    objects combine the shared announce/recovery scaffolding
    ({!Detectable.Announce}, {!Detectable.Recovery}) with object code of
    this shape: [try_linearize] is one attempt at the structural swing
    (the caller loops), and [took_effect] is the recovery-time predicate
    deciding whether an announced node survived into the post-crash
    structure (drives the Figure-6 completion pass). *)
module type LINEARIZATION_HOOK = sig
  type t
  type node

  val try_linearize : t -> tid:int -> node -> bool
  val took_effect : t -> node -> bool
end

(** An object's [D<T>] surface in the vocabulary of its [lib/spec]
    alphabet: [prep] announces, [exec] applies the announced op (passed
    in, so an object with one exec per op kind can pick it), [base] is
    the plain op (Axiom 4), and [resolve] answers [(A[p], R[p])].  Each
    object's op-to-call mapping is written once, as one of these: the
    engine objects share {!generic}, every detectable queue shares
    {!Queue_intf.adapter}, and the stack, register and hash map define
    theirs beside their functors.  Adapters take the object's module as
    a value rather than living inside its functor, so building one costs
    its four closures and nothing per functor application. *)
type ('op, 'r) adapter = {
  prep : tid:int -> 'op -> unit;
  exec : tid:int -> 'op -> 'r;
  base : tid:int -> 'op -> 'r;
  resolve : tid:int -> ('op, 'r) resolved;
}

(** The adapter of any {!GENERIC} object: the engine already speaks the
    uniform vocabulary. *)
let generic (type o r t)
    (module O : GENERIC with type op = o and type response = r and type t = t)
    (o : t) : (o, r) adapter =
  {
    prep = O.prep o;
    exec = (fun ~tid _ -> O.exec o ~tid);
    base = O.base o;
    resolve = O.resolve o;
  }
