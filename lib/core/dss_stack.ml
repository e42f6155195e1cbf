(** A detectable recoverable lock-free stack, [D<stack>], built with the
    DSS queue's methodology (Section 3) applied to Treiber's stack —
    demonstrating that the paper's recipe is not queue-specific.

    LIFO makes the claim protocol subtly harder than the queue's: in the
    queue, a dequeuer claims the successor of a validated head; in a
    stack, marking a node observed at the top is racy — a concurrent
    push can bury it first, and a mark on a buried node would "pop" it
    from the middle of the chain.  The claim therefore goes through the
    {e top word itself}: phase 1 CASes [top] from the unclaimed node to
    the node tagged with the claimer's mark (atomic with top-ness);
    phase 2 persists the mark into the node's [popper] field (the
    durable evidence resolve uses, analogous to [deqThreadID]); phase 3
    swings [top] to the successor and flushes it.  Anyone — pushers
    included — who finds the top claimed completes phases 2-3 first.

    The announce words, flush-before-publish posting and the generic
    Figure-6 recovery passes are the shared {!Detectable.Linked}
    scaffolding (as in {!Dss_queue}); this file owns the claim protocol
    and the stack's [took_effect] predicate. *)

module Make (M : Dssq_memory.Memory_intf.S) = struct
  module L = Detectable.Linked (M)
  module Pool = L.Pool
  module A = L.Announce
  module R = L.Recovery
  module Profile = Dssq_obs.Attrib

  let name = "dss-stack"

  (* Top word: node index (bits 0-39) | mark+1 of the claimer (bits
     40-61); 0 in the high bits = unclaimed. *)
  let claim_shift = 40
  let idx_of w = w land Tagged.index_mask
  let claim_of w = (w lsr claim_shift) - 1 (* -1 = unclaimed *)
  let claimed w = w lsr claim_shift <> 0
  let with_claim node mark = node lor ((mark + 1) lsl claim_shift)

  type t = {
    an : A.t; (* pool (deq_tid doubles as the popper mark), X, EBR *)
    top : int M.cell;
    combine : bool;
        (* batch persist epochs: elide the same-thread hardening drains
           that store-order buffering subsumes (DESIGN.md §14); drains
           guarding against cross-thread top flushes stay *)
  }

  let create ?wal ?pool_id ?(reclaim = true) ?(combine = false) ~nthreads
      ~capacity () =
    let an =
      A.create ?wal ?pool_id ~xname:"Xs" ~reclaim ~combine ~nthreads ~capacity
        ()
    in
    let top =
      M.alloc
        ~name:(fun () -> "top")
        ~placement:Dssq_memory.Memory_intf.Line.Isolated
        Tagged.null
    in
    M.flush top;
    M.drain ();
    { an; top; combine }

  let pool t = t.an.A.pool
  let x t = t.an.A.x
  let make_node t ~tid v = A.make_node t.an ~objname:"Dss_stack" ~tid v

  (* Complete a claimed top [w]: persist the claimer's mark in the node,
     then swing top past it and persist the swing.  Idempotent; callable
     by anyone. *)
  let help_complete t w =
    let node = idx_of w in
    let mark = claim_of w in
    M.write (Pool.deq_tid (pool t) node) mark;
    M.flush (Pool.deq_tid (pool t) node);
    (* px86 hardening: the claimer's mark must be durable before the
       top swing can persist — a crash could write the swung top back
       while the mark's flush still sits in the persist buffer, removing
       a node no announcement accounts for.  No-op under sc. *)
    M.drain ();
    let next = M.read (Pool.next (pool t) node) in
    ignore (M.cas t.top ~expected:w ~desired:next);
    (* Persist the removal before the node can be recycled. *)
    M.flush t.top

  (* ------------------------------ push ------------------------------ *)

  let prep_push t ~tid v =
    let sp = Profile.begin_span ~tid Profile.Announce in
    A.release_deferred t.an ~tid;
    let node = make_node t ~tid v in
    (* Persistence point: prep is durable when it returns. *)
    A.announce t.an ~tid (Tagged.with_tag node Tagged.enq_prep);
    Profile.end_span ~tid sp

  (* The publication retry loop (functor-level, as in the queue). *)
  let rec publish t ~tid ~detectable node =
    let w = M.read t.top in
    if claimed w then begin
      help_complete t w;
      publish t ~tid ~detectable node
    end
    else begin
      M.write (Pool.next (pool t) node) (idx_of w);
      M.flush (Pool.next (pool t) node);
      (* px86 hardening: the link flush must be durable before the
         publication can persist — the CAS dirties top, and a crash
         can write top back while the node's next flush still sits in
         the persist buffer, persisting a stack whose tail is lost.
         No-op under sc. *)
      M.drain ();
      if M.cas t.top ~expected:w ~desired:node then begin
        (* Persist the publication before reporting success. *)
        M.flush t.top;
        (* px86 hardening: the publication flush must be durable
           before the completion tag can persist — a crash could
           write the dirty X line back while top's flush still sits
           in the persist buffer, claiming completion for a push that
           never became reachable.  No-op under sc.  NOT elidable
           under combine: buffered persistency orders distinct lines
           only through a drain, so the X line can persist the
           completion tag while top's flush is lost (see the queue's
           link/tag barrier). *)
        M.drain ();
        if detectable then A.tag t.an ~tid Tagged.enq_compl
      end
      else publish t ~tid ~detectable node
    end

  let push_node t ~tid ~detectable node =
    Dssq_ebr.Ebr.enter t.an.A.ebr ~tid;
    publish t ~tid ~detectable node;
    (* Persistence point, while still EBR-protected.  NOT elidable under
       combine: the push is complete to the caller once this returns, so
       its completion evidence must be durable here or a crash would
       resolve a completed push as pending (see the queue's enqueue
       persistence point).  Combine elides only the intra-operation
       hazard drains above. *)
    M.drain ();
    Dssq_ebr.Ebr.exit t.an.A.ebr ~tid

  let exec_push t ~tid =
    let sp = Profile.begin_span ~tid Profile.Exec in
    let node = Tagged.idx (M.read (x t).(tid)) in
    push_node t ~tid ~detectable:true node;
    Profile.end_span ~tid sp

  let push t ~tid v =
    let sp = Profile.begin_span ~tid Profile.Exec in
    let node = make_node t ~tid v in
    (* px86 hardening: the detectable path gets this durability point
       from [A.announce]; the plain path must drain the node-field
       flushes itself (see the queue's plain enqueue).  No-op under sc;
       kept under combine for the same cross-line ordering reason. *)
    M.drain ();
    push_node t ~tid ~detectable:false node;
    Profile.end_span ~tid sp

  (* ------------------------------ pop ------------------------------- *)

  let prep_pop t ~tid =
    let sp = Profile.begin_span ~tid Profile.Announce in
    A.release_deferred t.an ~tid;
    A.announce t.an ~tid Tagged.deq_prep;
    Profile.end_span ~tid sp

  let rec claim t ~tid ~detectable =
    let w = M.read t.top in
    if claimed w then begin
      help_complete t w;
      claim t ~tid ~detectable
    end
    else if idx_of w = Tagged.null then begin
      if detectable then A.tag t.an ~tid Tagged.empty;
      Queue_intf.empty_value
    end
    else begin
      let node = idx_of w in
      if detectable then begin
        (* Save the node we are about to claim. *)
        A.post t.an ~tid (Tagged.with_tag node Tagged.deq_prep);
        (* px86 hardening: the posted claim target must be durable
           before the claim (through the top word) can persist, or a
           crash leaves a claimed node no announcement attributes.
           No-op under sc. *)
        M.drain ()
      end;
      (* Phase 1: claim through the top word — atomic with top-ness. *)
      let mine = with_claim node (L.mark ~detectable tid) in
      if M.cas t.top ~expected:w ~desired:mine then begin
        (* Phases 2-3 (helpers may race us; all steps idempotent). *)
        help_complete t mine;
        let v = M.read (Pool.value (pool t) node) in
        if detectable then A.defer_retire t.an ~tid node
        else A.retire t.an ~tid node;
        v
      end
      else claim t ~tid ~detectable
    end

  let pop_body t ~tid ~detectable =
    Dssq_ebr.Ebr.enter t.an.A.ebr ~tid;
    let v = claim t ~tid ~detectable in
    M.drain () (* persistence point, while still EBR-protected *);
    Dssq_ebr.Ebr.exit t.an.A.ebr ~tid;
    v

  let exec_pop t ~tid =
    let sp = Profile.begin_span ~tid Profile.Exec in
    let v = pop_body t ~tid ~detectable:true in
    Profile.end_span ~tid sp;
    v

  let pop t ~tid =
    let sp = Profile.begin_span ~tid Profile.Exec in
    let v = pop_body t ~tid ~detectable:false in
    Profile.end_span ~tid sp;
    v

  (* ---------------------------- detection --------------------------- *)

  let resolve t ~tid =
    let sp = Profile.begin_span ~tid Profile.Resolve in
    let xw = M.read (x t).(tid) in
    let r =
      if Tagged.has xw Tagged.enq_prep then A.resolve_push t.an xw
      else if Tagged.has xw Tagged.deq_prep then begin
        if xw = Tagged.deq_prep then Queue_intf.Deq_pending
        else if xw = Tagged.deq_prep lor Tagged.empty then Queue_intf.Deq_empty
        else begin
          let node = Tagged.idx xw in
          if M.read (Pool.deq_tid (pool t) node) = tid then
            Queue_intf.Deq_done (M.read (Pool.value (pool t) node))
          else Queue_intf.Deq_pending
        end
      end
      else Queue_intf.Nothing
    in
    Profile.end_span ~tid sp;
    r

  (* ----------------------------- recovery --------------------------- *)

  let recover t =
    let sp = Profile.begin_span ~tid:(-1) Profile.Recovery_scan in
    A.reset_volatile t.an;
    (* Complete a claim that survived in the persisted top word. *)
    let w = M.read t.top in
    if claimed w then begin
      let node = idx_of w in
      M.write (Pool.deq_tid (pool t) node) (claim_of w);
      M.flush (Pool.deq_tid (pool t) node);
      M.write t.top (M.read (Pool.next (pool t) node));
      M.flush t.top
    end;
    let old_top = idx_of (M.read t.top) in
    let all_nodes = R.reachable_from t.an old_top in
    (* Skip the marked prefix (marks are flushed before the top swing
       persists, so a marked node's pop took effect). *)
    let rec advance n =
      if n <> Tagged.null && M.read (Pool.deq_tid (pool t) n) <> -1 then
        advance (M.read (Pool.next (pool t) n))
      else n
    in
    let new_top = advance old_top in
    M.write t.top new_top;
    M.flush t.top;
    (* Complete detectability state of effective pushes: still in the
       chain, or already popped-and-marked. *)
    R.complete_effective t.an ~took_effect:(fun d ->
        all_nodes.(d) || M.read (Pool.deq_tid (pool t) d) <> -1);
    (* Rebuild free lists, keeping live and X-referenced nodes (no extra
       pins: resolve reads the claimed node itself, never a successor). *)
    R.rebuild t.an ~new_root:new_top ~extra:(fun ~defer:_ _ _ -> ());
    M.drain ();
    Profile.end_span ~tid:(-1) sp

  (** Post-recovery leak audit (read-only): free lists vs the kept set
      — reachable from top plus X-referenced nodes. *)
  let audit t =
    R.audit t.an
      ~new_root:(idx_of (M.read t.top))
      ~extra:(fun ~defer:_ _ _ -> ())

  (* ----------------------- introspection ---------------------------- *)

  let stats t = A.stats t.an ~state_words:1 (* the top word *)

  (** Contents, top first, skipping claimed/marked nodes.  Quiescent use
      only. *)
  let to_list t =
    let rec collect acc n guard =
      if n = Tagged.null || guard = 0 then List.rev acc
      else begin
        let next = M.read (Pool.next (pool t) n) in
        if M.read (Pool.deq_tid (pool t) n) <> -1 then
          collect acc next (guard - 1)
        else collect (M.read (Pool.value (pool t) n) :: acc) next (guard - 1)
      end
    in
    collect [] (idx_of (M.read t.top)) ((pool t).Pool.capacity + 2)

  let free_count t = Pool.free_count (pool t)
end
