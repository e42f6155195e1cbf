(** Seeded fault injection at the memory layer.

    A mutant wraps a backend module with an interposer that silently
    drops selected persistence (or detectability) events, planting the
    classic crash-consistency bugs the model checker must be able to
    find: code that is correct except for one missing flush, one stale
    announcement word, or a write-back that is issued but never drained.
    The wrapped module still satisfies {!Dssq_memory.Memory_intf.S}, so
    any algorithm functor instantiates over it unchanged — the mutation
    is invisible until a crash makes the lost persistence observable.

    Selection is by cell {e name} substring, using the names algorithms
    already give their cells for tracing (queue nodes are
    [node<i>[0..2]] for value/next/deq_tid, announcements are
    [X[<tid>]]). *)

module Intf = Dssq_memory.Memory_intf

type mutation =
  | Skip_flush of string
      (** drop flushes whose cell name contains the substring — the
          "forgot the flush before the CAS" bug *)
  | Stale_write of string
      (** drop every write after the first to matching cells — the
          announcement word keeps its prep-time contents, so
          detectability state goes stale *)
  | Unfenced
      (** drop {e every} flush: write-backs are issued but never
          drained, so nothing added after initialization persists *)
  | Drop_drain
      (** drop every [drain]: coalesced flushes are buffered but the
          batch write-back at the persistence point never happens — the
          coalescing analogue of {!Unfenced}.  Only observable against a
          coalescing backend (eager backends drain at every flush), so
          it lives outside {!all} and is hunted by the coalescing
          corpus. *)
  | Skip_drain of string
      (** drop the first [drain] after a flush of a matching cell — the
          "flushed but forgot the sfence before the dependent publish"
          bug.  Invisible under sc (eager flushes are synchronous, so
          the dropped drain was already a no-op); under px86 the
          matching flushes stay buffered across the publish CAS and a
          crash can persist the link to a node whose fields never made
          it to the persistence domain. *)
  | Short_drain
      (** every drain misses the newest flush — the off-by-one persist
          barrier that covers each pwb except the one issued just before
          it.  {!wrap} holds each flush back until the next flush or
          barrier and forwards a drain's newest flush {e after} the
          drain, so it stays buffered past it.  Inert under sc (eager
          flushes leave nothing pending, coalesced ones drain before
          every store); under px86 it hollows out exactly the hardening
          drains the objects interpose between a flush and the CAS that
          depends on it, reverting them to their unhardened crash
          behaviour. *)
  | Lost_batch
      (** a flat-combining install publishes its batch's completion
          records durably {e before} the state's persist epoch — the
          ordering bug the combiner's single-epoch discipline exists to
          rule out.  A crash between the two leaves durable [Done]
          evidence for effects that rolled back, so exactly-once retries
          never happen for operations that must re-execute (the dual of
          {!Stale_write}: evidence without effect instead of effect
          without evidence).  Only meaningful on a combining corpus;
          implemented in the engine ([Detectable.lost_batch_injection] —
          the ordering inversion spans an algorithm-level epoch the
          module interposer cannot see), so {!wrap} passes operations
          through unchanged and the scenario runner flips the hook. *)
  | Reorder_persist of string
      (** flushes of matching cells overtake every flush issued since
          the last barrier — a persist that jumps program order.
          {!wrap} holds the other flushes back until the next barrier
          and forwards a matching one at once, ahead of them.  Inert
          under sc, and {e provably masked} in the hardened objects:
          every inter-line persistence dependence is mediated by a drain
          barrier, so at each dependence point there is nothing to
          reorder past.  Registered so the px86 corpus passing under it
          is a standing robustness regression (drain-mediation suffices
          against pure persist reordering). *)

let describe = function
  | Skip_flush pat -> Printf.sprintf "drop flushes of cells matching %S" pat
  | Stale_write pat ->
      Printf.sprintf "drop 2nd+ writes to cells matching %S (stale state)" pat
  | Unfenced -> "drop all flushes (write-backs never drained)"
  | Drop_drain -> "drop all drains (coalesced flushes never written back)"
  | Skip_drain pat ->
      Printf.sprintf "drop the drain after flushes of cells matching %S" pat
  | Short_drain -> "every drain misses the newest flush (off-by-one)"
  | Lost_batch ->
      "combining installs publish batch completions before the persist epoch"
  | Reorder_persist pat ->
      Printf.sprintf "persist flushes of cells matching %S out of order" pat

(** The seeded DSS-queue mutants of the regression suite. *)

let skip_flush_link = Skip_flush "[1]"
(** Node [next] pointers are never persisted: the link CASed into the
    list can vanish at a crash after the enqueue reported completion. *)

let skip_flush_mark = Skip_flush "[2]"
(** Dequeue claim marks ([deq_tid]) are never persisted: a crash can
    forget who dequeued a value, breaking exactly-once recovery. *)

let stale_announce = Stale_write "X["
(** Per-thread announcement words keep their prep-time contents: the
    completion update is lost, so [resolve] reports a finished operation
    as still pending and the retry duplicates it. *)

let unfenced = Unfenced

let drop_drain = Drop_drain
(** The persistence points of coalescing-annotated code never drain: X
    announcements and final link/claim flushes stay buffered when the
    operation returns.  Meaningless against eager backends (their [drain]
    is already a no-op), so it is registered separately from {!all} and
    the regression suite hunts it on a [~policy:Coalesced] corpus. *)

let skip_drain_node = Skip_drain "node"
(** Node-field flushes (value, next) are issued but the drain ordering
    them before the publish CAS is dropped: SC-safe (the eager flush
    already persisted), relaxed-buggy (the link can persist while the
    node it points at is lost). *)

let short_drain = Short_drain
(** Every drain persists all but the newest flush: SC-safe (the eager
    flush already persisted before the drain was a no-op),
    relaxed-buggy (the flush each hardening drain was interposed for is
    exactly the one it misses, so the publish CAS races a link that never
    reached the persistence domain). *)

let lost_batch = Lost_batch
(** Completion-before-epoch ordering inversion in the flat-combining
    engine.  Invisible with combining off (eager installs publish after
    their own drain by construction) and not part of {!all}; the
    combining corpus hunts it by name ("lost-batch"). *)

let reorder_completion = Reorder_persist "X["
(** Announcement-word flushes overtake the flushes since the last
    barrier.  SC-safe (no buffer); under px86 the hardened objects mask
    it — see {!Reorder_persist} — so the px86 corpus {e passing} this
    mutant is the drain-mediation robustness regression, hunted by name
    ("reorder-persist") like {!drop_drain}. *)

let all =
  [
    ("skip-flush-link", skip_flush_link);
    ("skip-flush-mark", skip_flush_mark);
    ("stale-announce", stale_announce);
    ("unfenced", unfenced);
  ]

(** SC-safe, relaxed-buggy mutants: the sc corpus must pass them, the
    px86 corpus must catch them.  Outside {!all} for the same reason as
    {!drop_drain} — the plain sc regression suite asserts every {!all}
    entry is caught, which these deliberately are not. *)
let relaxed =
  [
    ("skip-drain", skip_drain_node);
    ("short-drain", short_drain);
  ]

let by_name n =
  match n with
  | "drop-drain" -> Some drop_drain
  | "reorder-persist" -> Some reorder_completion
  | "lost-batch" -> Some lost_batch
  | _ -> (
      match List.assoc_opt n relaxed with
      | Some m -> Some m
      | None -> List.assoc_opt n all)

exception Livelock
(** A mutated execution exceeded its memory-operation budget.  Planted
    bugs can destroy liveness, not just safety — e.g. a stale
    announcement makes the exactly-once retry re-link an already-linked
    node, and the next dequeue spins forever helping a tail that is
    already in place.  The budget turns that unbounded direct-mode loop
    into an exception the scenario can contain; the safety oracle still
    judges the history recorded up to that point. *)

let budget = 100_000
(** Memory operations per wrapped-module instance (one instance per
    explored execution).  Corpus executions use a few hundred. *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  m = 0
  ||
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(** Interpose [mutation] on a backend whose persist policy is [policy].
    The persist-order mutants ({!Short_drain}, {!Reorder_persist}) act
    only under a {!Intf.Policy.relaxed} policy — [Px86] or [Combine] —
    and pass every operation through otherwise. *)
let wrap ~(policy : Intf.Policy.t) mutation (module M : Intf.S) :
    (module Intf.S) =
  let mutation =
    match mutation with
    | (Short_drain | Reorder_persist _) when not (Intf.Policy.relaxed policy)
      ->
        None
    | m -> Some m
  in
  (module struct
    type 'a cell = { inner : 'a M.cell; cname : string; mutable writes : int }

    let ops = ref 0

    let spend () =
      incr ops;
      if !ops > budget then raise Livelock

    let mk cname inner = { inner; cname; writes = 0 }

    (* Selection matches on names, so the interposer forces each cell's
       name thunk once, at allocation: only mutant runs pay for it. *)
    let alloc ?(name = Intf.Name.none) ?placement v =
      mk (name ()) (M.alloc ~name ?placement v)

    let alloc_block ?(name = Intf.Name.none) vs =
      List.mapi
        (fun i c -> mk (Intf.Name.element name i ()) c)
        (M.alloc_block ~name vs)

    (* Recovery-infrastructure cells — the write-ahead log's slot words
       ("wal[i][j]") and the root directory ("roots.*") — are exempt
       from every mutation.  Planted bugs model object-code mistakes;
       mutating the log would surface as [Wal.Corrupted] at reattach
       instead of the oracle violation the regression suite asserts. *)
    let infra c =
      let has_prefix p =
        String.length c.cname >= String.length p
        && String.sub c.cname 0 (String.length p) = p
      in
      has_prefix "wal" || has_prefix "roots"

    let hits pat c = (not (infra c)) && contains c.cname pat

    let read c =
      spend ();
      M.read c.inner

    let write c v =
      spend ();
      c.writes <- c.writes + 1;
      match mutation with
      | Some (Stale_write pat) when hits pat c && c.writes > 1 -> ()
      | _ -> M.write c.inner v

    let cas c ~expected ~desired =
      spend ();
      M.cas c.inner ~expected ~desired

    (* Skip_drain: a matching flush since the last drain arms the trap;
       the next drain is swallowed and disarms it. *)
    let armed = ref false

    (* Flushes held back from the backend, newest first.  Forwarding them
       later — after a barrier, or behind a flush issued after them — is
       how the persist-order mutants reorder the backend's FIFO from
       outside.  Unlike the other mutations these hold infrastructure
       flushes too: exempting them would itself reorder persists. *)
    let held : (unit -> unit) list ref = ref []

    let forward_held () =
      let pending = List.rev !held in
      held := [];
      List.iter (fun forward -> forward ()) pending

    let flush c =
      spend ();
      match mutation with
      | Some Unfenced when not (infra c) -> ()
      | Some (Skip_flush pat) when hits pat c -> ()
      | Some (Skip_drain pat) ->
          if hits pat c then armed := true;
          M.flush c.inner
      | Some Short_drain ->
          forward_held ();
          held := [ (fun () -> M.flush c.inner) ]
      | Some (Reorder_persist pat) when not (hits pat c) ->
          held := (fun () -> M.flush c.inner) :: !held
      | _ -> M.flush c.inner

    let fence () =
      match mutation with
      | Some Short_drain ->
          M.fence ();
          forward_held ()
      | _ ->
          forward_held ();
          M.fence ()

    let drain () =
      match mutation with
      | Some Drop_drain -> ()
      | Some (Skip_drain _) when !armed -> armed := false
      | Some Short_drain ->
          M.drain ();
          forward_held ()
      | _ ->
          forward_held ();
          M.drain ()
  end)

let () =
  Printexc.register_printer (function
    | Livelock ->
        Some "Mutants.Livelock: memory-operation budget exhausted (planted \
              bug destroyed liveness)"
    | _ -> None)
