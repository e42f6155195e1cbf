(** Abstract shared-memory interface for persistent-memory algorithms.

    Every concurrent algorithm in this repository is a functor over {!S}, so
    the same source runs on two backends:

    - {!Dssq_memory.Native}: OCaml 5 [Atomic.t] cells across real domains,
      with a calibrated busy-wait charged at each [flush]/[fence] to model
      the latency of a CLWB + store-fence pair (PMDK's [pmem_persist]).
    - [Dssq_sim.Memory]: simulated cells with separate volatile and
      persisted values, driven by a deterministic scheduler that can crash
      the system between any two memory events.

    Cells are word-granularity: a cell models one failure-atomic machine
    word (the paper assumes 64-bit failure-atomic writes, Section 1).
    Algorithms that need pointer tagging pack index + tag bits into a
    single [int] cell (see [Dssq_core.Tagged]).

    {b Persistence, however, is line-granularity}: the paper's hardware
    (Optane + CLWB) writes back whole cache lines, so cells are allocated
    into {!Line}s and [flush cell] persists the cell's entire line.  A
    line whose every word is already persisted has nothing to write back,
    so flushing it is free — {e clean-line elision}, the effect behind
    Mirror-/Memento-style flush coalescing.  Line size 1 degenerates to
    the original word-granular model (every flush charged, no elision)
    and is the regression anchor for all pre-line figures. *)

(** Persist lines: the unit at which the modelled cache tracks dirtiness,
    writes back ([flush]), and evicts at a crash.  Both backends share
    this state machine and the placement allocator below; only the cell
    payload representation differs. *)
module Line = struct
  let default_size = 8
  (** Words per line.  Eight 64-bit words = the 64-byte x86 cache line of
      the paper's testbed. *)

  type t = { id : int; size : int; dirty : bool Atomic.t }
  (** One persist line.  [dirty] is the OR of the member cells' dirtiness
      — set by every store/CAS to a member, cleared by write-back.
      Atomic because native-backend domains share lines. *)

  (** Where [alloc] places a fresh cell. *)
  type placement =
    | Packed  (** fill the current open line (default) *)
    | Isolated
        (** a private line of its own — for hot global words (queue head,
            tail, per-thread X entries) that real implementations pad to
            a full cache line to avoid false sharing *)

  let make ~id ~size = { id; size; dirty = Atomic.make false }
  let is_dirty l = Atomic.get l.dirty
  let mark_dirty l = if not (Atomic.get l.dirty) then Atomic.set l.dirty true

  (** Whether a flush of this line would perform a write-back, without
      changing any state — the simulator's cost model asks this before
      the operation applies. *)
  let flush_pending l = l.size <= 1 || Atomic.get l.dirty

  (** Whether flushing this line performs a write-back, clearing its
      dirtiness either way.  At size 1 the answer is always [true]: the
      seed's word-granular model charged every flush unconditionally, and
      line size 1 must reproduce those numbers exactly (the regression
      anchor).  At sizes >= 2 a clean line's flush is elided. *)
  let flush_effective l =
    if l.size <= 1 then begin
      Atomic.set l.dirty false;
      true
    end
    else Atomic.exchange l.dirty false

  (** Clear the line's dirtiness, returning whether it {e was} dirty —
      i.e. whether a write-back happens.  Unlike {!flush_effective} there
      is no size-1 special case: that rule exists only to reproduce the
      legacy always-charge cost model on the eager path, whereas a
      coalescing drain writes back exactly the lines that hold unpersisted
      stores, at any line size. *)
  let take_dirty l = Atomic.exchange l.dirty false

  (** Sequential placement of cells into lines.  Not thread-safe: the
      simulator allocates from one domain; the native backend serializes
      calls with its own lock. *)
  module Alloc = struct
    type line = t

    type t = {
      size : int;
      mutable next_id : int;
      mutable current : line option;  (** open line being filled *)
      mutable room : int;  (** words left in [current] *)
    }

    let create ?(size = default_size) () =
      if size < 1 then invalid_arg "Line.Alloc.create: size must be >= 1";
      { size; next_id = 0; current = None; room = 0 }

    let line_size a = a.size

    (** Close the current open line: the next [Packed] placement starts a
        fresh one.  Used to align a block of co-located cells. *)
    let align a =
      a.current <- None;
      a.room <- 0

    let fresh a =
      let l = make ~id:a.next_id ~size:a.size in
      a.next_id <- a.next_id + 1;
      l

    (** Line for the next cell.  [Packed] fills the open line, opening a
        new one when full; [Isolated] grabs a private line and leaves no
        line open (so later packed cells cannot share it). *)
    let place ?(placement = Packed) a =
      match placement with
      | Isolated ->
          align a;
          fresh a
      | Packed -> (
          match a.current with
          | Some l when a.room > 0 ->
              a.room <- a.room - 1;
              l
          | _ ->
              let l = fresh a in
              a.current <- Some l;
              a.room <- a.size - 1;
              l)

    (** Lines for [n] co-located cells (a node's fields): placement
        starts at a fresh line boundary and the block ends aligned, so
        distinct blocks never share a line (no false sharing between
        nodes). *)
    let place_block a ~n =
      align a;
      let lines = List.init n (fun _ -> place a) in
      align a;
      lines
  end
end

(** Cache-line padding for {e volatile} hot atomics (free-list heads,
    shared counters).  OCaml gives no control over object placement, so
    the only portable defense against false sharing is to keep a filler
    block allocated {e with} each atomic: consecutive [make] calls then
    land the atomics at least [pad_words] words apart, on the minor heap
    and after compaction alike, because the filler stays reachable from
    the same record.  The extra indirection is irrelevant for the
    contended operations these are used for (CAS loops, statistics
    increments), where the coherence miss dominates. *)
module Padded = struct
  let pad_words = 15
  (** With the 2-word block headers this spaces consecutive atomics a
      full 128-byte prefetch pair apart on 64-bit systems. *)

  type 'a t = { v : 'a Atomic.t; _pad : int array }

  let make v = { v = Atomic.make v; _pad = Array.make pad_words 0 }
  let get p = Atomic.get p.v
  let set p v = Atomic.set p.v v
  let compare_and_set p expected desired = Atomic.compare_and_set p.v expected desired
  let fetch_and_add p n = Atomic.fetch_and_add p.v n
  let incr p = Atomic.incr p.v
end

(** Persistency model: the relation between store order and persist
    order.  This is the single definition of the axis — backends,
    object configs and the CLI all reference it from here.

    - {!Sc}: the strong baseline every pre-relaxed figure was produced
      under.  [flush] is synchronous (CLWB + implied drain): when it
      returns, the line is durable.  Persist order equals flush order.
    - {!Px86}: buffered (epoch) persistency in the style of Px86 /
      PTSO.  [flush] only {e enqueues} the line into the issuing
      thread's FIFO persist buffer; the line becomes durable when an
      explicit [drain]/[fence] writes the buffer back — or when the
      crash adversary chooses to write back a prefix of the buffer
      asynchronously.  Stores never auto-drain, so the window between
      a flush and its drain is visible to the model checker, which is
      precisely the window real CLWB leaves open. *)
module Persistency = struct
  type t = Sc | Px86

  let to_string = function Sc -> "sc" | Px86 -> "px86"

  let of_string = function
    | "sc" -> Some Sc
    | "px86" -> Some Px86
    | _ -> None

  let all = [ Sc; Px86 ]
end

(** Persist policy: the one behaviour both backends implement, resolved
    once from the three memory-model inputs (persistency model, flush
    coalescing, flat combining).  Every policy but {!Eager} routes
    flushes into a per-thread FIFO persist buffer that drains write back
    in FIFO order; the buffered policies differ only in
    {!drains_before_store} and {!enqueues_stores}.

    - {!Eager}: no buffer — [flush] writes back synchronously, [drain] is
      a no-op.
    - {!Coalesced}: buffered, and every store or CAS first drains the
      storing thread's buffer, so persist order stays flush order.
    - {!Px86}: buffered; stores never drain, so only [drain]/[fence] —
      or the crash adversary, by FIFO prefixes — write buffers back.
    - {!Combine}: {!Px86} plus strict buffering of stores: every store or
      CAS enqueues its line too, and a line re-dirtied or re-flushed
      while buffered moves to the FIFO tail (flat-combining epochs). *)
module Policy = struct
  type t = Eager | Coalesced | Px86 | Combine

  (** The single place the eight flag combinations collapse onto four
      behaviours: combining subsumes px86, which subsumes coalescing. *)
  let of_axes ~persistency ~coalesce ~combine =
    if combine then Combine
    else
      match (persistency : Persistency.t) with
      | Px86 -> Px86
      | Sc -> if coalesce then Coalesced else Eager

  let drains_before_store = function
    | Coalesced -> true
    | Eager | Px86 | Combine -> false

  let enqueues_stores = function
    | Combine -> true
    | Eager | Coalesced | Px86 -> false

  (** Whether buffered flushes can stay pending across stores — so the
      crash adversary must see the buffers, and persist-order faults can
      show. *)
  let relaxed p = p <> Eager && not (drains_before_store p)

  let to_string = function
    | Eager -> "eager"
    | Coalesced -> "coalesced"
    | Px86 -> "px86"
    | Combine -> "combine"
end

(** Deferred cell names (see {!S.alloc}): a name is a thunk, forced only
    when something reads it. *)
module Name = struct
  type t = unit -> string

  let none : t = fun () -> ""

  (** The name of element [i] of a block named [name]: [name ^ "[i]"],
      or [""] when the block is unnamed — built only when forced. *)
  let element (name : t) i : t =
   fun () ->
    match name () with "" -> "" | n -> n ^ "[" ^ string_of_int i ^ "]"
end

module type S = sig
  type 'a cell
  (** A shared memory word holding a value of type ['a].  On persistent
      backends the cell has both a volatile (cache) value, which all
      threads observe, and a persisted value, which survives crashes. *)

  val alloc : ?name:Name.t -> ?placement:Line.placement -> 'a -> 'a cell
  (** [alloc v] allocates a fresh cell whose volatile {e and} persisted
      value is [v] (allocation happens during failure-free initialization
      or recovery, both of which persist initial state).  [placement]
      (default {!Line.Packed}) chooses the persist line the cell lands
      in.

      [name] is the cell's diagnostic name, {e computed when read}: the
      backend keeps the thunk and calls it only when a
      {!Persist_event} subscriber is sent an event for the cell or the
      cell is printed — which may be long after allocation, so a
      subscriber that starts late still sees every name.  Most cells
      are never named at all, and allocation then costs no string work.
      The thunk must be pure: each call returns the same string.  The
      default names the cell [""]. *)

  val alloc_block : ?name:Name.t -> 'a list -> 'a cell list
  (** [alloc_block vs] allocates one cell per value, co-located from a
      fresh line boundary — a node's fields share (with the default line
      size) a single persist line, so flushing them after initialization
      costs one write-back instead of one per word.  Element [i] is
      named [name ^ "[i]"] (or [""] under an empty name), composed as
      lazily as [name] itself. *)

  val read : 'a cell -> 'a
  (** Sequentially consistent load of the volatile value. *)

  val write : 'a cell -> 'a -> unit
  (** Sequentially consistent store to the volatile value.  The store is
      {e not} persisted until [flush] (or a simulated cache eviction);
      it marks the cell's whole line dirty. *)

  val cas : 'a cell -> expected:'a -> desired:'a -> bool
  (** Single-word compare-and-swap on the volatile value.  Comparison is
      physical equality, which coincides with value equality for the
      immediate (int) values used by all algorithms here. *)

  val flush : 'a cell -> unit
  (** Write the cell's current {e line} back to the persistence domain
      and drain it (CLWB + sfence, i.e. PMDK [pmem_persist]): every
      dirty word sharing the cell's line is persisted by the one
      write-back.  Flushing a clean line is elided (free) when the line
      size is >= 2; at line size 1 every flush is charged, exactly as in
      the pre-line word-granular model. *)

  val fence : unit -> unit
  (** Store fence without a write-back; orders prior flushes. *)

  val drain : unit -> unit
  (** Persist barrier for buffering backends: write back every line in
      this thread's persist buffer and fence once.  Algorithms call it at
      their linearization/persistence points (end of prep, end of exec,
      before publishing a node for reuse).  Under the {!Policy.Eager}
      policy every [flush] already wrote back, so [drain] is a no-op —
      zero events, zero cost — which keeps the eager path bit-for-bit
      identical to the pre-coalescing figures.  Under {!Policy.Coalesced}
      stores and CAS drain first, so the flush-before-dependent-store
      orderings eager code relies on hold without annotating every store
      site. *)
end

(** A snapshot of memory-event counters: one monotonic count per event
    class of {!S}.  Both backends produce these through the same
    {!COUNTED} interface, so the workload harness can report per-phase
    flush/fence/CAS deltas uniformly (the paper's Section 4 cost
    accounting).  [flushes] counts {e effective} flushes (write-backs);
    [elided_flushes] counts flush calls answered by a clean line at no
    cost — the savings line-granular persistence buys.
    [coalesced_flushes] counts flush calls absorbed by a line already
    pending in a coalescing persist buffer (deduplicated, so the drain
    writes the line back once); [elided_fences] counts the per-flush
    fences a drain folded into its single barrier (k absorbed flush
    calls -> k-1 elided fences).  Both are zero on eager backends.
    [pwrites] counts persistent-word mutations — stores plus {e
    successful} CAS — i.e. how many words of persistent memory the
    algorithm actually dirtied; divided by the operation count it is the
    [persistent_words_per_op] metric compared against the space lower
    bounds of Ben-Baruch, Hendler & Rusanovsky. *)
type counters = {
  reads : int;
  writes : int;
  cases : int;
  pwrites : int;
  flushes : int;
  elided_flushes : int;
  coalesced_flushes : int;
  fences : int;
  elided_fences : int;
}

module Counters = struct
  let zero =
    {
      reads = 0;
      writes = 0;
      cases = 0;
      pwrites = 0;
      flushes = 0;
      elided_flushes = 0;
      coalesced_flushes = 0;
      fences = 0;
      elided_fences = 0;
    }

  let add a b =
    {
      reads = a.reads + b.reads;
      writes = a.writes + b.writes;
      cases = a.cases + b.cases;
      pwrites = a.pwrites + b.pwrites;
      flushes = a.flushes + b.flushes;
      elided_flushes = a.elided_flushes + b.elided_flushes;
      coalesced_flushes = a.coalesced_flushes + b.coalesced_flushes;
      fences = a.fences + b.fences;
      elided_fences = a.elided_fences + b.elided_fences;
    }

  (** [diff ~after ~before] is the delta between two snapshots of the
      same monotonic counters (e.g. around one benchmark phase). *)
  let diff ~after ~before =
    {
      reads = after.reads - before.reads;
      writes = after.writes - before.writes;
      cases = after.cases - before.cases;
      pwrites = after.pwrites - before.pwrites;
      flushes = after.flushes - before.flushes;
      elided_flushes = after.elided_flushes - before.elided_flushes;
      coalesced_flushes = after.coalesced_flushes - before.coalesced_flushes;
      fences = after.fences - before.fences;
      elided_fences = after.elided_fences - before.elided_fences;
    }

  (* [pwrites] is excluded: it re-counts stores and successful CAS as
     persistent-word mutations, so adding it would double-charge. *)
  let total c =
    c.reads + c.writes + c.cases + c.flushes + c.elided_flushes
    + c.coalesced_flushes + c.fences + c.elided_fences

  let to_assoc c =
    [
      ("reads", c.reads);
      ("writes", c.writes);
      ("cases", c.cases);
      ("pwrites", c.pwrites);
      ("flushes", c.flushes);
      ("elided_flushes", c.elided_flushes);
      ("coalesced_flushes", c.coalesced_flushes);
      ("fences", c.fences);
      ("elided_fences", c.elided_fences);
    ]

  let of_assoc l =
    let get k = Option.value ~default:0 (List.assoc_opt k l) in
    {
      reads = get "reads";
      writes = get "writes";
      cases = get "cases";
      pwrites = get "pwrites";
      flushes = get "flushes";
      elided_flushes = get "elided_flushes";
      coalesced_flushes = get "coalesced_flushes";
      fences = get "fences";
      elided_fences = get "elided_fences";
    }

  let pp fmt c =
    Format.fprintf fmt
      "reads=%d writes=%d cases=%d pwrites=%d flushes=%d elided=%d \
       coalesced=%d fences=%d elided_fences=%d"
      c.reads c.writes c.cases c.pwrites c.flushes c.elided_flushes
      c.coalesced_flushes c.fences c.elided_fences
end

(** A backend with uniform memory-event accounting: snapshot with
    {!val-counters}, compute phase deltas with {!Counters.diff}.

    Enabling is by {e backend selection}, not per-operation flags: the
    uninstrumented {!S} modules stay branch-free on the hot path, and a
    harness that wants counts instantiates its algorithm functor over a
    counted backend instead ([Dssq_memory.Native.Counted ()] or
    [Dssq_sim.Sim.counted_memory heap]). *)
module type COUNTED = sig
  include S

  val counters : unit -> counters
  val reset_counters : unit -> unit
end
