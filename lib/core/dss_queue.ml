(** The DSS queue (Section 3): a lock-free, strictly linearizable,
    detectable FIFO queue for persistent memory with a volatile cache.

    The algorithm extends Michael & Scott's lock-free queue and Friedman
    et al.'s durable queue with a per-thread word [X] that realizes the
    [A]/[R] components of the detectable sequential specification
    [D<queue>]: [prep-*] records the intended operation in [X],
    [exec-*] performs it and marks completion in [X], and [resolve]
    decodes [X] (plus the persistent list structure) into
    [(A[p], R[p])].  Line numbers in comments refer to Figures 3, 4
    and 6 of the paper.

    The announce words, deferred-retirement bookkeeping and the generic
    recovery passes (complete effective insertions, rebuild free lists)
    are the shared {!Detectable.Linked} scaffolding; this file owns the
    queue-specific structural code — the Michael-Scott swing, the
    [deqThreadID] claim, and the [took_effect] predicate.

    Memory reclamation (not in the paper's pseudocode, but used in its
    evaluation): dequeued sentinels are retired through epoch-based
    reclamation.  A node still referenced by the calling thread's own
    [X] entry has its retirement deferred until [X] moves on, so that
    [resolve] never chases a recycled pointer. *)

module Make (M : Dssq_memory.Memory_intf.S) = struct
  module L = Detectable.Linked (M)
  module Pool = L.Pool
  module A = L.Announce
  module Trace = Dssq_obs.Trace
  module Profile = Dssq_obs.Profile

  let name = "dss-queue"

  (* Operation-level trace events.  Guarded at each call site so argument
     strings are never built when tracing is off; [set_tid] pins the
     attribution for direct-mode (non-simulated) callers, where the
     scheduler is not around to do it. *)
  let trace_begin ~tid op args =
    if Trace.is_on () then begin
      Trace.set_tid tid;
      Trace.op_begin op ~args
    end

  let trace_end op result = if Trace.is_on () then Trace.op_end op ~result

  let deq_result v =
    if v = Queue_intf.empty_value then "empty" else string_of_int v

  type t = {
    an : A.t; (* announce words + pool + reclamation (shared scaffolding) *)
    head : int M.cell;
    tail : int M.cell;
    combine : bool;
        (* flat-combining batch epochs: the backend buffers flushes in
           per-thread store-order FIFOs (Heap combine mode), which
           subsumes the intra-thread hardening drains — those are elided
           below, so enqueues share one persist epoch.  Cross-thread
           orderings (claim attribution, mark-before-head-advance,
           reclamation) keep their drains: the FIFO argument is
           per-thread only. *)
  }

  let create ?wal ?pool_id ?(reclaim = true) ?(combine = false) ~nthreads
      ~capacity () =
    let an =
      A.create ?wal ?pool_id ~xname:"X" ~reclaim ~combine ~nthreads ~capacity ()
    in
    let sentinel = Pool.alloc an.A.pool ~tid:0 ~value:0 in
    M.flush (Pool.value an.A.pool sentinel);
    M.flush (Pool.next an.A.pool sentinel);
    let head =
      M.alloc
        ~name:(fun () -> "head")
        ~placement:Dssq_memory.Memory_intf.Line.Isolated
        sentinel
    in
    let tail =
      M.alloc
        ~name:(fun () -> "tail")
        ~placement:Dssq_memory.Memory_intf.Line.Isolated
        sentinel
    in
    M.flush head;
    M.flush tail;
    M.drain ();
    { an; head; tail; combine }

  let of_config ?wal ?pool_id (cfg : Queue_intf.config) =
    create ?wal ?pool_id ~reclaim:cfg.reclaim ~combine:cfg.combine
      ~nthreads:cfg.nthreads ~capacity:cfg.capacity ()

  let pool t = t.an.A.pool
  let x t = t.an.A.x
  let nthreads t = t.an.A.nthreads

  (* ------------------------------------------------------------------ *)
  (* Enqueue (Figure 3)                                                  *)
  (* ------------------------------------------------------------------ *)

  (* Allocate and persist a fresh node holding [v] (FLUSH(node), line 2;
     per-word flushes here, see DESIGN.md on flush granularity). *)
  let make_node t ~tid v =
    let node = A.make_node t.an ~objname:"Dss_queue" ~tid v in
    M.flush (Pool.next (pool t) node);
    node

  let prep_enqueue t ~tid v =
    trace_begin ~tid "prep-enqueue" (string_of_int v);
    let sp = Profile.begin_span ~tid Profile.Announce in
    A.release_deferred t.an ~tid;
    let node = make_node t ~tid v in
    (* lines 3-4; persistence point: prep durable on return (a crash
       after prep must resolve to the prepared operation) *)
    A.announce t.an ~tid (Tagged.with_tag node Tagged.enq_prep);
    Profile.end_span ~tid sp;
    trace_end "prep-enqueue" "ok"

  (* Body shared by exec-enqueue and the non-detectable enqueue; the
     latter omits every access to X (Section 3.1). *)
  let enqueue_node t ~tid ~detectable node =
    Dssq_ebr.Ebr.enter t.an.A.ebr ~tid;
    let rec loop () =
      let last = M.read t.tail in
      let next = M.read (Pool.next (pool t) last) in
      if last = M.read t.tail then
        if next = Tagged.null then begin
          (* at tail: line 11 *)
          if
            M.cas (Pool.next (pool t) last) ~expected:Tagged.null ~desired:node
          then begin
            M.flush (Pool.next (pool t) last) (* line 12 *);
            (* px86 hardening: the link flush must be durable before the
               completion tag can persist — the tag's write dirties X and
               a crash can write X back (cache eviction) while the link
               flush still sits in the persist buffer, persisting a
               completion claim for a node that never became reachable.
               No-op under sc (eager flushes already drained).  NOT
               elidable under combine: buffered persistency orders
               flushes of {e distinct} lines only through a drain (a
               line writeback can overtake the FIFO), so the X line can
               persist the completion tag while the link flush is lost —
               durable Done evidence for a node that was never linked
               (model-checker counterexample for the elision:
               queue/enq-enq/crash/ls1/fc, recovered-structure check
               "X[1] claims completion but node neither queued nor
               dequeued"). *)
            M.drain ();
            if detectable then
              A.tag t.an ~tid Tagged.enq_compl (* lines 13-14 *);
            ignore (M.cas t.tail ~expected:last ~desired:node) (* line 15 *)
          end
          else loop ()
        end
        else begin
          (* help another enqueuing thread: lines 18-19.  px86
             hardening: the helped link must be durable before the tail
             can advance — once tail moves, this thread links its own
             node after [next], and a crash may persist that second link
             while the first still sits in the helper's persist buffer,
             leaving a persisted next-chain that skips into nodes the
             recovered structure never linked (re-execution then links
             them twice and the chain cycles).  No-op under sc. *)
          M.flush (Pool.next (pool t) last);
          (* Under combine: a helped link persisting early is harmless
             (its owner's announce is already durable), and a lost one
             truncates the recovered chain at worst — the owner retries
             after stale-next normalization.  Elide the barrier. *)
          if not t.combine then M.drain ();
          ignore (M.cas t.tail ~expected:last ~desired:next);
          loop ()
        end
      else loop ()
    in
    loop ();
    (* Persistence point: the operation's flushes (link, X completion)
       must land before the enqueue reports completion — and before the
       node can enter reclamation, so drain while still EBR-protected.
       NOT elidable under combine: once this returns, the operation is
       complete to the caller, and strict linearizability requires a
       crash from here on to resolve it Done (model-checker
       counterexample for the elision: queue/enq-deq/crash/ls1/fc — the
       buffered completion tag is lost and resolve reports an
       already-completed enqueue as pending).  Combine still elides the
       intra-operation hazard drains above; this one drain is the
       operation's batch-epoch close. *)
    M.drain ();
    Dssq_ebr.Ebr.exit t.an.A.ebr ~tid

  let exec_enqueue t ~tid =
    trace_begin ~tid "exec-enqueue" "";
    let sp = Profile.begin_span ~tid Profile.Exec in
    let node = Tagged.idx (M.read (x t).(tid)) in
    enqueue_node t ~tid ~detectable:true node;
    Profile.end_span ~tid sp;
    trace_end "exec-enqueue" "ok"

  let enqueue t ~tid v =
    trace_begin ~tid "enqueue" (string_of_int v);
    let sp = Profile.begin_span ~tid Profile.Exec in
    let node = make_node t ~tid v in
    (* px86 hardening: the detectable path gets this durability point
       from [A.announce]; the plain path must drain the node-field
       flushes itself before the link CAS can persist a pointer to a
       node whose contents were lost.  No-op under sc; kept under
       combine — buffered persistency does not order distinct lines
       without a drain, so the link line could persist ahead of the
       node-field flushes. *)
    M.drain ();
    enqueue_node t ~tid ~detectable:false node;
    Profile.end_span ~tid sp;
    trace_end "enqueue" "ok"

  (* ------------------------------------------------------------------ *)
  (* Dequeue (Figure 4)                                                  *)
  (* ------------------------------------------------------------------ *)

  let prep_dequeue t ~tid =
    trace_begin ~tid "prep-dequeue" "";
    let sp = Profile.begin_span ~tid Profile.Announce in
    A.release_deferred t.an ~tid;
    (* lines 32-33; persistence point, as in prep_enqueue *)
    A.announce t.an ~tid Tagged.deq_prep;
    Profile.end_span ~tid sp;
    trace_end "prep-dequeue" "ok"

  (* Body shared by exec-dequeue and the non-detectable dequeue.  The
     non-detectable variant omits X accesses and marks deqThreadID with
     [tid lor nondet_mark] instead of the bare tid. *)
  let dequeue_body t ~tid ~detectable =
    Dssq_ebr.Ebr.enter t.an.A.ebr ~tid;
    let mark = if detectable then tid else tid lor L.nondet_mark in
    let rec loop () =
      let first = M.read t.head in
      let last = M.read t.tail in
      let next = M.read (Pool.next (pool t) first) in
      if first = M.read t.head then
        if first = last then
          if next = Tagged.null then begin
            (* empty queue: lines 40-43 *)
            if detectable then A.tag t.an ~tid Tagged.empty;
            Queue_intf.empty_value
          end
          else begin
            (* tail is lagging: lines 44-45.  The flush guarantees that
               any node reachable once tail moves has a persisted link;
               px86 hardening: drain so the guarantee holds before the
               advance (see the enqueue help path).  No-op under sc;
               elided under combine like the enqueue help path. *)
            M.flush (Pool.next (pool t) last);
            if not t.combine then M.drain ();
            ignore (M.cas t.tail ~expected:last ~desired:next);
            loop ()
          end
        else begin
          if detectable then begin
            (* save predecessor of the node to be dequeued: lines 47-48 *)
            A.post t.an ~tid (Tagged.with_tag first Tagged.deq_prep);
            (* px86 hardening: the posted predecessor must be durable
               before the claim mark can persist — the claim CAS dirties
               deq_tid, and a crash can write that line back while the
               X post's flush still sits in the persist buffer, leaving
               a persisted claim that no announcement attributes (the
               value is consumed by nobody).  No-op under sc. *)
            M.drain ()
          end;
          if
            M.cas (Pool.deq_tid (pool t) next) ~expected:(-1) ~desired:mark
            (* line 49 *)
          then begin
            M.flush (Pool.deq_tid (pool t) next) (* line 50 *);
            (* resolve reads [next]'s claim mark through X[tid] -> first,
               but the next dequeue retires [next]: pin it until X moves
               on, or its free resets the mark and a completed dequeue
               resolves as pending. *)
            if detectable then A.pin t.an ~tid next;
            (* px86 hardening: the claim mark must be durable before the
               head advance can persist, or a crash strands a persisted
               head past an unmarked node.  No-op under sc. *)
            M.drain ();
            ignore (M.cas t.head ~expected:first ~desired:next) (* line 51 *);
            let v = M.read (Pool.value (pool t) next) in
            (* Persist the head advance before the old sentinel can be
               recycled, so a reused node is never reachable from the
               persisted head (the paper's pseudocode omits reclamation;
               this flush is what makes EBR reuse crash-safe — see
               DESIGN.md deviations). *)
            if t.an.A.reclaim then M.flush t.head;
            (* The old sentinel [first] is now unreachable.  If X[tid]
               references it (detectable path), resolve may still need
               it, so defer its retirement until X moves on. *)
            if detectable then A.defer_retire t.an ~tid first
            else A.retire t.an ~tid first;
            v
          end
          else if M.read t.head = first then begin
            (* help another dequeuing thread: lines 53-55 (same
               mark-before-head-advance ordering as above) *)
            M.flush (Pool.deq_tid (pool t) next);
            M.drain ();
            ignore (M.cas t.head ~expected:first ~desired:next);
            loop ()
          end
          else loop ()
        end
      else loop ()
    in
    let v = loop () in
    (* Persistence point — before [Ebr.exit], so the head-advance flush
       lands before the old sentinel can be recycled and reused. *)
    M.drain ();
    Dssq_ebr.Ebr.exit t.an.A.ebr ~tid;
    v

  let exec_dequeue t ~tid =
    trace_begin ~tid "exec-dequeue" "";
    let sp = Profile.begin_span ~tid Profile.Exec in
    let v = dequeue_body t ~tid ~detectable:true in
    Profile.end_span ~tid sp;
    trace_end "exec-dequeue" (deq_result v);
    v

  let dequeue t ~tid =
    trace_begin ~tid "dequeue" "";
    let sp = Profile.begin_span ~tid Profile.Exec in
    let v = dequeue_body t ~tid ~detectable:false in
    Profile.end_span ~tid sp;
    trace_end "dequeue" (deq_result v);
    v

  (* ------------------------------------------------------------------ *)
  (* Detection (resolve, resolve-enqueue, resolve-dequeue)               *)
  (* ------------------------------------------------------------------ *)

  let resolve_dequeue t ~tid x =
    if x = Tagged.deq_prep then Queue_intf.Deq_pending (* lines 56-57 *)
    else if x = Tagged.deq_prep lor Tagged.empty then Queue_intf.Deq_empty
      (* lines 58-59 *)
    else begin
      let first = Tagged.idx x in
      let next = M.read (Pool.next (pool t) first) in
      if next <> Tagged.null && M.read (Pool.deq_tid (pool t) next) = tid then
        Queue_intf.Deq_done (M.read (Pool.value (pool t) next))
        (* lines 60-61 *)
      else Queue_intf.Deq_pending (* lines 62-63 *)
    end

  let resolve t ~tid =
    if Trace.is_on () then Trace.set_tid tid;
    let sp = Profile.begin_span ~tid Profile.Resolve in
    let xw = M.read (x t).(tid) in
    let r =
      if Tagged.has xw Tagged.enq_prep then
        A.resolve_push t.an xw (* lines 20-22, 29, 31 *)
      else if Tagged.has xw Tagged.deq_prep then resolve_dequeue t ~tid xw
        (* lines 23-25 *)
      else Queue_intf.Nothing (* lines 26-27 *)
    in
    Profile.end_span ~tid sp;
    if Trace.is_on () then
      Trace.resolve
        ~outcome:(Format.asprintf "%a" Queue_intf.pp_resolved r);
    r

  (* ------------------------------------------------------------------ *)
  (* Recovery (Figure 6 / Appendix A)                                    *)
  (* ------------------------------------------------------------------ *)

  module R = L.Recovery

  let last_reachable t start =
    let rec go n =
      let next = M.read (Pool.next (pool t) n) in
      if next = Tagged.null then n else go next
    in
    go start

  (** Drop all volatile runtime state (reclamation epochs and limbo
      lists, deferred retirements).  Models the process restart that
      precedes any recovery; [recover] calls it, call it directly before
      decentralized [recover_thread]-style recovery. *)
  let reset_volatile t = A.reset_volatile t.an

  (* The extra-pin closure recovery hands to [R.rebuild]; the audit must
     use the same one so both compute the same partition. *)
  let extra_pins t ~defer i xw =
    if Tagged.has xw Tagged.deq_prep then begin
      let succ = M.read (Pool.next (pool t) (Tagged.idx xw)) in
      if succ <> Tagged.null then defer i succ
    end

  (** Centralized single-threaded recovery, run after the crash semantics
      have been applied to the heap and before application threads
      resume.  Extends Figure 6 with free-list reconstruction (the paper:
      "extended straightforwardly to prevent memory leaks"). *)
  let recover t =
    Trace.recovery_begin ();
    let sp = Profile.begin_span ~tid:(-1) Profile.Recovery_scan in
    reset_volatile t;
    let old_head = M.read t.head in
    (* line 64: set of queue nodes reachable from head *)
    let all_nodes = R.reachable_from t.an old_head in
    (* lines 65-66 *)
    M.write t.tail (last_reachable t old_head);
    M.flush t.tail;
    (* lines 67-69: advance head past the marked prefix *)
    let rec advance n =
      let next = M.read (Pool.next (pool t) n) in
      if next <> Tagged.null && M.read (Pool.deq_tid (pool t) next) <> -1 then
        advance next
      else n
    in
    let new_head = advance old_head in
    M.write t.head new_head;
    M.flush t.head;
    (* lines 70-76: complete detectability state of effective enqueues —
       the queue's [took_effect]: enqueued and still in the linked list,
       or enqueued, dequeued and already marked *)
    R.complete_effective t.an ~took_effect:(fun d ->
        all_nodes.(d) || M.read (Pool.deq_tid (pool t) d) <> -1);
    (* Stale-next normalization (combine mode, harmless otherwise): an
       enqueue whose link was lost at the crash will be re-executed, but
       its node's [next] field may hold a durable pointer from an
       earlier linking attempt.  Re-linking such a node at the new tail
       with a non-null [next] would splice the stale successor chain
       into the queue.  Clear [next] on every retry candidate — ENQ-
       prepared, uncompleted, not reachable, unmarked — so the retry
       starts from a null link like a fresh node. *)
    let xs = x t in
    for i = 0 to Array.length xs - 1 do
      let xw = M.read xs.(i) in
      if
        Tagged.idx xw <> Tagged.null
        && Tagged.has xw Tagged.enq_prep
        && not (Tagged.has xw Tagged.enq_compl)
      then begin
        let d = Tagged.idx xw in
        if
          (not all_nodes.(d))
          && M.read (Pool.deq_tid (pool t) d) = -1
          && M.read (Pool.next (pool t) d) <> Tagged.null
        then begin
          M.write (Pool.next (pool t) d) Tagged.null;
          M.flush (Pool.next (pool t) d)
        end
      end
    done;
    (* Rebuild the volatile free lists; beyond the X-referenced nodes the
       generic pass keeps, a DEQ-prepared X entry also pins its saved
       predecessor's successor (resolve-dequeue reads X->next). *)
    R.rebuild t.an ~new_root:new_head ~extra:(fun ~defer i xw ->
        extra_pins t ~defer i xw);
    M.drain ();
    Profile.end_span ~tid:(-1) sp;
    Trace.recovery_end ()

  (** Post-recovery leak audit (read-only): free lists vs the kept set
      — reachable from head, X-referenced, DEQ successors.  See
      {!Node_pool.audit_report}. *)
  let audit t =
    R.audit t.an ~new_root:(M.read t.head) ~extra:(fun ~defer i xw ->
        extra_pins t ~defer i xw)

  (** Decentralized recovery (Section 3.3): thread [tid] repairs only its
      own X entry, with no centralized phase and no auxiliary state.
      Safe to run concurrently with other threads' recovery and normal
      operations (the thread is EBR-protected while it scans). *)
  let recover_thread t ~tid =
    if Trace.is_on () then Trace.set_tid tid;
    Trace.recovery_begin ();
    let sp = Profile.begin_span ~tid Profile.Recovery_scan in
    let xw = M.read (x t).(tid) in
    if
      Tagged.idx xw <> Tagged.null
      && Tagged.has xw Tagged.enq_prep
      && not (Tagged.has xw Tagged.enq_compl)
    then begin
      let d = Tagged.idx xw in
      Dssq_ebr.Ebr.enter t.an.A.ebr ~tid;
      let marked () = M.read (Pool.deq_tid (pool t) d) <> -1 in
      let in_list () =
        let rec go n =
          n = d || (n <> Tagged.null && go (M.read (Pool.next (pool t) n)))
        in
        go (M.read t.head)
      in
      let took_effect = marked () || in_list () || marked () in
      Dssq_ebr.Ebr.exit t.an.A.ebr ~tid;
      if took_effect then A.post t.an ~tid (Tagged.with_tag xw Tagged.enq_compl)
    end;
    M.drain ();
    Profile.end_span ~tid sp;
    Trace.recovery_end ()

  (* ------------------------------------------------------------------ *)
  (* Introspection (tests and debugging; quiescent use only)             *)
  (* ------------------------------------------------------------------ *)

  let stats t = A.stats t.an ~state_words:2 (* head + tail *)

  (** Structural invariants that must hold right after [recover] (used by
      the crash-injection tests).  Returns human-readable violations. *)
  let recovered_violations t =
    let violations = ref [] in
    let add fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
    let head = M.read t.head in
    let tail = M.read t.tail in
    (* Walk the list once. *)
    let rec walk n acc =
      let next = M.read (Pool.next (pool t) n) in
      if next = Tagged.null then List.rev (n :: acc) else walk next (n :: acc)
    in
    let chain = walk head [] in
    let last = List.nth chain (List.length chain - 1) in
    if tail <> last then add "tail %d is not the last reachable node %d" tail last;
    (* After recovery, no node after head may be marked (head was advanced
       past the marked prefix). *)
    List.iteri
      (fun i n ->
        if i > 0 && M.read (Pool.deq_tid (pool t) n) <> -1 then
          add "marked node %d still reachable after head" n)
      chain;
    (* X entries tagged ENQ_PREP|ENQ_COMPL must reference a node that is
       either still in the list or marked as dequeued. *)
    let in_chain n = List.mem n chain in
    for i = 0 to nthreads t - 1 do
      let xw = M.read (x t).(i) in
      let d = Tagged.idx xw in
      if
        Tagged.has xw Tagged.enq_prep
        && Tagged.has xw Tagged.enq_compl
        && d <> Tagged.null
        && (not (in_chain d))
        && M.read (Pool.deq_tid (pool t) d) = -1
      then add "X[%d] claims completion but node %d neither queued nor dequeued" i d
    done;
    List.rev !violations

  let to_list t =
    let rec skip_marked n =
      let next = M.read (Pool.next (pool t) n) in
      if next <> Tagged.null && M.read (Pool.deq_tid (pool t) next) <> -1 then
        skip_marked next
      else n
    in
    let rec collect acc n =
      let next = M.read (Pool.next (pool t) n) in
      if next = Tagged.null then List.rev acc
      else collect (M.read (Pool.value (pool t) next) :: acc) next
    in
    collect [] (skip_marked (M.read t.head))

  let free_count t = Pool.free_count (pool t)
end
