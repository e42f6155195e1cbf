(** One detectability functor, many objects.

    The paper's central claim is that detectability is a property of the
    {e specification}: [D<T>] is derived mechanically from any
    sequential type [T] (Section 2.1).  This module is that derivation
    as executable code — {!Make} takes a packaged base specification
    ([Dssq_spec.Dss_spec.S]) and a memory backend and produces a
    detectable, recoverable object, owning everything that used to be
    re-implemented per object:

    - the per-thread announce records (the tagged [X] words) and their
      prep-time persistence point;
    - per-thread operation sequence numbers;
    - the exec loop: help the previous operation persist its completion
      before destroying the evidence, apply the specification, install
      the new state with a single boxed CAS, self-record the result;
    - [resolve] after a crash, answering from the announce record or the
      state word's provenance;
    - the flush/drain persistence points.

    The protocol is {!Dss_cell}'s, generalized from register/CAS cells
    to any sequential specification: state lives in one failure-atomic
    word holding a boxed [(s, writer, seq, resp)] record, CAS is
    physical equality on the exact record read (the boxed-CAS idiom,
    ABA-immune), and anyone about to overwrite first persists the
    victim's completion into the victim's own announce word (helping).

    Read-only steps — operations whose [apply] returns the physically
    identical state (reads, failed CAS, pops of an empty container) —
    install nothing; the engine instead {e flushes the state it read}
    before answering, so the returned value can never be rolled back by
    a crash (strict linearizability; the flush-on-read discipline
    {!Dss_register} adopted after its PR-4 audit).

    Linked structures whose exec step is a multi-word pointer swing
    (queue, stack) cannot route it through one state-word CAS; they keep
    their object-specific swing behind a
    {!Detectable_intf.LINEARIZATION_HOOK} and share the {!Announce} and
    {!Recovery} scaffolding below instead. *)

module Spec = Dssq_spec.Spec
module Profile = Dssq_obs.Attrib

(** Checker hook for the [lost-batch] mutant: when set, a combining
    install publishes its batch's completions durably {e before} the
    state's persist epoch — the exact ordering bug flat combining must
    not have (a crash between the two leaves durable [Done] evidence
    for effects that rolled back, so the owner re-executes an applied
    operation).  Shared across all functor instantiations so the
    scenario runner can flip it without threading it through object
    constructors; always [false] outside mutant runs. *)
let lost_batch_injection = ref false

(** The engine, polymorphic in the specification — {!Make} is a thin
    monomorphizing wrapper.  Types are concrete so sibling modules
    ({!Dss_cell}, {!Dss_register}) can build variant vocabularies on
    top without re-deriving the protocol. *)
module Make_any (M : Dssq_memory.Memory_intf.S) = struct
  (** The state word: base state plus the provenance of the operation
      that installed it.  [writer = -1] for the initial state and for
      non-detectable (base) operations; [resp] is the installing
      operation's response, which is what helpers persist into the
      writer's announce word and what [resolve] answers from when the
      announce word's completion was lost.

      [batch] is the flat-combining extension: when a combiner folds
      several announced operations into one install, the entry carries
      the [(writer, seq, resp)] provenance of every folded operation
      beyond the primary one, so a crash that keeps the state line but
      loses the announce completions still resolves {e each} operation
      of the batch individually.  Eager installs always carry
      [batch = []], keeping the combining-off path bit-for-bit
      identical.

      [e] is the install's position in the CAS chain (strictly
      increasing: successor of the entry it replaced).  The combining
      path compares it against the volatile durable-epoch marker to
      learn whether this install's persist epoch has closed; eager
      paths maintain it (a pure field copy, no memory events) and never
      read it. *)
  type ('s, 'r) entry = {
    s : 's;
    writer : int;
    seq : int;
    resp : 'r option;
    batch : (int * int * 'r option) list;
    e : int;
  }

  (** One thread's announce record: the prepared operation, its sequence
      number, and the result once the operation took effect. *)
  type ('op, 'r) announce = { aop : 'op; aseq : int; result : 'r option }

  type ('s, 'op, 'r) t = {
    spec : ('s, 'op, 'r) Spec.t;
    nthreads : int;
    combine : bool;  (** route [exec] through the flat-combining path *)
    state : ('s, 'r) entry M.cell;
    epoch : int M.cell;
        (** durable-epoch marker: the highest install id [e] whose
            persist epoch (state flush + drain) is known closed.  Purely
            volatile — never flushed; a crash may revert it, which only
            sends post-crash losers down the help-persist slow path. *)
    x : ('op, 'r) announce option M.cell array;
    active : bool array;
        (** volatile fold-eligibility flags: [active.(i)] is true only
            while thread [i] is inside [exec_combine].  Combiners may
            fold an announced operation only while its owner is actively
            executing it; without the guard, a {e post-crash} retry
            would fold a peer's announced-but-never-executed operation,
            and the peer's [resolve] would report Done for an operation
            that linearized after the crash — a strict-linearizability
            violation.  Being volatile is the point: a crash clears the
            flags, so nothing is foldable until its owner re-enters
            [exec]. *)
    seqs : int array;  (** volatile per-thread operation counters *)
    mutable batches : int;  (** volatile telemetry: combining installs *)
    mutable folded : int;  (** volatile telemetry: ops folded, total *)
  }

  let create ?(name = Dssq_memory.Memory_intf.Name.none) ?placement ?init
      ?(combine = false) ~nthreads (spec : ('s, 'op, 'r) Spec.t) =
    let init = Option.value ~default:spec.Spec.init init in
    let cname suffix = match name () with "" -> suffix | n -> n ^ "." ^ suffix in
    let state =
      M.alloc ~name:(fun () -> cname "state") ?placement
        { s = init; writer = -1; seq = 0; resp = None; batch = []; e = 0 }
    in
    M.flush state;
    M.drain ();
    {
      spec;
      nthreads;
      combine;
      state;
      epoch = M.alloc ~name:(fun () -> cname "epoch") ?placement 0;
      x =
        Array.init nthreads (fun i ->
            M.alloc
              ~name:(fun () -> cname ("X[" ^ string_of_int i ^ "]"))
              ?placement None);
      active = Array.make nthreads false;
      seqs = Array.make nthreads 0;
      batches = 0;
      folded = 0;
    }

  (* Persist the completion of the operation that installed [cur] into
     its writer's announce word, before [cur] can be overwritten.  The
     drain is load-bearing: without it, a crash can persist the
     overwriting install while dropping this completion's line, and the
     victim — whose provenance the overwrite destroyed — resolves
     Pending and re-executes an operation that took effect.  For a
     register that is harmless (the retried write linearizes after the
     overwriter); for a value-returning operation like swap it is a
     linearization cycle (model-checker counterexample:
     explore --case swap/swap-swap/crash/ls1). *)
  (* Record [resp] as the completion of thread [w]'s operation [seq],
     helping-style: retry CAS races until the record is in place, and
     flush so it enters the persist pipeline before the caller's drain. *)
  let rec publish_result t ~w ~seq resp =
    if w >= 0 && w < t.nthreads then begin
      let xc = t.x.(w) in
      match M.read xc with
      | Some ({ aseq; result = None; _ } as a) as x when aseq = seq ->
          if M.cas xc ~expected:x ~desired:(Some { a with result = resp })
          then M.flush xc
          else publish_result t ~w ~seq resp
      | Some { aseq; result = Some _; _ } when aseq = seq -> M.flush xc
      | _ -> ()
    end

  let rec help_complete t (cur : _ entry) =
    let w = cur.writer in
    if w >= 0 && w < t.nthreads then begin
      let xc = t.x.(w) in
      match M.read xc with
      | Some ({ result = None; _ } as a) as x when a.aseq = cur.seq ->
          (* [cur] is the victim's install and may itself still be
             sitting in cache: make the effect durable before its
             completion evidence, or a crash could keep the evidence and
             drop the effect — a Done response from a state that never
             existed.  (If the state word has moved on since we read
             [cur], this persists the newer entry — harmless, and the
             CAS below fails.) *)
          M.flush t.state;
          M.drain ();
          if M.cas xc ~expected:x ~desired:(Some { a with result = cur.resp })
          then begin
            M.flush xc;
            M.drain ()
          end
          else help_complete t cur (* lost a race; re-check, then persist *)
      | Some { result = Some _; aseq; _ } when aseq = cur.seq ->
          (* Completion already recorded — possibly only in cache, by the
             victim itself, whose own drain has not run yet.  Persist it
             anyway: an already-drained line makes these free. *)
          M.flush xc;
          M.drain ()
      | _ -> ()
    end;
    (* A combining install carries more provenances than its primary:
       the whole batch's completions must be durable before the entry
       can be overwritten, by the same argument as above.  Eager entries
       always have [batch = []], so this adds nothing (not even a read)
       to the combining-off path. *)
    if cur.batch <> [] then begin
      let unrecorded (w, q, _) =
        w >= 0 && w < t.nthreads
        &&
        match M.read t.x.(w) with
        | Some { aseq; result = None; _ } -> aseq = q
        | _ -> false
      in
      if List.exists unrecorded cur.batch then begin
        M.flush t.state;
        M.drain ();
        List.iter (fun (w, q, r) -> publish_result t ~w ~seq:q r) cur.batch
      end
      else
        (* Every completion is recorded — but possibly only volatile:
           folded owners self-record with a buffered flush once the
           durable-epoch marker passes their install.  Those lines must
           be durable before [cur]'s batch provenance is destroyed, or a
           crash persisting our overwrite drops the records of effects
           it carries.  Flushing an already-durable line is free. *)
        List.iter
          (fun (w, _, _) -> if w >= 0 && w < t.nthreads then M.flush t.x.(w))
          cur.batch;
      M.drain ()
    end

  let apply t ~tid op s =
    match t.spec.Spec.apply s ~tid op with
    | Some r -> r
    | None ->
        invalid_arg
          (Format.asprintf "Detectable(%s): operation %a not enabled"
             t.spec.Spec.name t.spec.Spec.pp_op op)

  (* ------------------------- non-detectable ------------------------- *)

  (** The plain operation (Axiom 4).  Read-only steps flush the state
      they answer from instead of installing anything. *)
  let base t ~tid op =
    let sp = Profile.begin_span ~tid Profile.Exec in
    let rec loop () =
      let cur = M.read t.state in
      let s', resp = apply t ~tid op cur.s in
      if s' == cur.s then begin
        M.flush t.state;
        M.drain ();
        resp
      end
      else begin
        help_complete t cur;
        if
          M.cas t.state ~expected:cur
            ~desired:
              {
                s = s';
                writer = -1;
                seq = 0;
                resp = None;
                batch = [];
                e = cur.e + 1;
              }
        then begin
          M.flush t.state;
          M.drain ();
          resp
        end
        else loop ()
      end
    in
    let r = loop () in
    Profile.end_span ~tid sp;
    r

  (* --------------------------- detectable --------------------------- *)

  let prep t ~tid op =
    let sp = Profile.begin_span ~tid Profile.Announce in
    t.seqs.(tid) <- t.seqs.(tid) + 1;
    let xc = t.x.(tid) in
    M.write xc (Some { aop = op; aseq = t.seqs.(tid); result = None });
    M.flush xc;
    M.drain () (* persistence point: prep durable on return *);
    Profile.end_span ~tid sp

  (* Record [resp] as the caller's completion, unless a helper got there
     first. *)
  let record_result t ~tid resp =
    let xc = t.x.(tid) in
    (match M.read xc with
    | Some ({ result = None; _ } as a) as x ->
        if M.cas xc ~expected:x ~desired:(Some { a with result = Some resp })
        then M.flush xc
    | _ -> ());
    ()

  (* ------------------------- flat combining ------------------------- *)

  (* CAS-max the volatile durable-epoch marker up to install id [e]:
     every install at or below the marker has had its persist epoch
     closed (state flushed and drained while the line held that install
     or a successor — and a successor can only have been installed after
     [help_complete] made the victim's completions durable, so either
     way the marked install's effects and provenances are safe). *)
  let rec advance_epoch t e =
    let m = M.read t.epoch in
    if m < e && not (M.cas t.epoch ~expected:m ~desired:e) then
      advance_epoch t e

  (* One combining pass (opt-in via [~combine:true]): help the current
     entry complete, fold {e every} announced-but-unapplied operation —
     the caller's included — into a single boxed install whose [batch]
     field carries the folded provenances, then pay ONE persist epoch
     (flush state, drain) for the whole batch.  Announced operations are
     already durable intents (prep drained them), which is exactly what
     makes them safe to apply on the owner's behalf: a crash at any
     point leaves each folded operation either absent or resolvable from
     the batch provenance.

     Combining here is helping, not locking: a thread whose operation
     was folded by another combiner never waits — it reads its response
     from the installed entry.  Completion records are the owners' own
     business: once the durable-epoch marker reaches the install, each
     folded owner records its own result with a buffered flush (no
     barrier — the state's durability is what licensed the answer, and
     [help_complete] persists the record before the entry's provenance
     can be destroyed).  An owner that finds the epoch still open closes
     it itself instead of waiting, which keeps the pass lock-free. *)
  let exec_combine t ~tid aop aseq =
    t.active.(tid) <- true;
    Fun.protect ~finally:(fun () -> t.active.(tid) <- false) @@ fun () ->
    let rec attempt () =
      let cur = M.read t.state in
      (* Did another combiner already fold our operation into [cur]? *)
      let mine =
        if cur.writer = tid && cur.seq = aseq then cur.resp
        else
          List.fold_left
            (fun acc (w, q, r) -> if w = tid && q = aseq then r else acc)
            None cur.batch
      in
      match mine with
      | Some r ->
          (match M.read t.x.(tid) with
          | Some { aseq = q; result = Some _; _ } when q = aseq ->
              () (* a helper recorded it for us; its flush is in flight *)
          | _ ->
              (* Poll the durable-epoch marker a bounded number of times
                 before helping: the combiner's drain is usually already
                 in flight, and a read costs an order of magnitude less
                 than closing the epoch ourselves.  The bound keeps the
                 pass lock-free. *)
              let rec settle polls =
                if M.read t.epoch >= cur.e then
                  (* The install's persist epoch is closed: the effect
                     is durable (or superseded — which required
                     persisting our completion first), so record our own
                     result with a buffered flush and no barrier. *)
                  record_result t ~tid r
                else if polls > 0 then settle (polls - 1)
                else begin
                  (* Close the epoch ourselves rather than wait any
                     longer for the combiner.  If the state word has
                     moved past [cur] by now this persists the newer
                     entry, which is still correct: a successor install
                     implies our completion is already durable. *)
                  M.flush t.state;
                  M.drain ();
                  advance_epoch t cur.e;
                  record_result t ~tid r
                end
              in
              settle 4);
          r
      | None ->
          help_complete t cur;
          let s0, my_resp = apply t ~tid aop cur.s in
          let s = ref s0 in
          let others = ref [] in
          for i = 0 to t.nthreads - 1 do
            (* Fold only operations whose owner is actively executing
               (see [active]): announced intent alone is not license to
               linearize it — after a crash it must wait for its owner's
               retry, or resolve would report a post-crash
               linearization. *)
            if i <> tid && t.active.(i) then
              match M.read t.x.(i) with
              | Some { aop = o; aseq = q; result = None }
                when (not (cur.writer = i && cur.seq = q))
                     && not
                          (List.exists
                             (fun (w, sq, _) -> w = i && sq = q)
                             cur.batch) -> (
                  match t.spec.Spec.apply !s ~tid:i o with
                  | Some (s', r) ->
                      s := s';
                      others := (i, q, Some r) :: !others
                  | None -> () (* not enabled at this fold point *))
              | _ -> ()
          done;
          let s' = !s in
          let batch = List.rev !others in
          (* Always install — even when our own step is read-only and
             nothing was folded.  The eager path's no-install fast path
             is unsound here: between our read of [cur] and answering, a
             concurrent combiner may fold {e our} operation into its own
             install with a response computed from a fresher state, and
             a locally decided answer would then contradict the batch
             provenance (model-checker counterexample:
             bcounter/inc-dec/nocrash/ls1/fc — a stale dec answers FAIL
             while the combiner's fold answered OK).  Routing every
             response through the state CAS makes the install the single
             linearization point: a stale attempt fails the CAS, retries,
             and finds its folded response in [mine]. *)
          begin
            let e' = cur.e + 1 in
            if
              M.cas t.state ~expected:cur
                ~desired:
                  {
                    s = s';
                    writer = tid;
                    seq = aseq;
                    resp = Some my_resp;
                    batch;
                    e = e';
                  }
            then begin
              t.batches <- t.batches + 1;
              t.folded <- t.folded + 1 + List.length batch;
              let sp = Profile.begin_span ~tid Profile.Combine in
              if !lost_batch_injection then begin
                (* Mutant: completions durable before the effect — and
                   the marker advanced before the drain, so folded
                   owners buffer theirs early too. *)
                advance_epoch t e';
                record_result t ~tid my_resp;
                List.iter (fun (w, q, r) -> publish_result t ~w ~seq:q r) batch;
                M.drain ();
                M.flush t.state;
                M.drain ()
              end
              else begin
                (* THE persist epoch: one flush+drain makes the install
                   — and with it every folded effect and provenance —
                   durable at once.  Advancing the marker then hands the
                   completion records over to their owners, whose
                   buffered flushes need no further barrier here. *)
                M.flush t.state;
                M.drain ();
                advance_epoch t e';
                record_result t ~tid my_resp
              end;
              Profile.end_span ~tid sp;
              my_resp
            end
            else attempt ()
          end
    in
    attempt ()

  let exec_unprofiled t ~tid =
    match M.read t.x.(tid) with
    | None -> invalid_arg "Detectable.exec: no operation prepared"
    | Some { result = Some r; _ } -> r (* already took effect: idempotent *)
    | Some { aop; aseq; result = None } when t.combine ->
        exec_combine t ~tid aop aseq
    | Some { aop; aseq; result = None } ->
        let rec loop () =
          let cur = M.read t.state in
          let s', resp = apply t ~tid aop cur.s in
          if s' == cur.s then begin
            (* Read-only: nothing to install.  Persist the state we are
               answering from — durably, before recording our
               completion: if the completion's line survived a crash
               that dropped the state's, resolve would report a response
               observed from a state that never existed. *)
            M.flush t.state;
            M.drain ();
            record_result t ~tid resp;
            resp
          end
          else begin
            help_complete t cur;
            if
              M.cas t.state ~expected:cur
                ~desired:
                  {
                    s = s';
                    writer = tid;
                    seq = aseq;
                    resp = Some resp;
                    batch = [];
                    e = cur.e + 1;
                  }
            then begin
              (* Same ordering as the read-only path: the install must
                 be durable before the completion record can be — the
                 provenance in the state entry already serves as durable
                 evidence from here on. *)
              M.flush t.state;
              M.drain ();
              record_result t ~tid resp;
              resp
            end
            else loop ()
          end
        in
        let r = loop () in
        M.drain () (* persistence point *);
        r

  let exec t ~tid =
    let sp = Profile.begin_span ~tid Profile.Exec in
    let r = exec_unprofiled t ~tid in
    Profile.end_span ~tid sp;
    r

  (* ---------------------------- detection --------------------------- *)

  let resolve_unprofiled t ~tid : _ Detectable_intf.resolved =
    match M.read t.x.(tid) with
    | None -> Nothing
    | Some { aop; result = Some r; _ } -> Done (aop, r)
    | Some { aop; aseq; result = None } -> (
        let cur = M.read t.state in
        if cur.writer = tid && cur.seq = aseq then
          (* Our install is visible but the completion write to our own
             announce word was lost: the state word's provenance carries
             the response. *)
          match cur.resp with
          | Some r -> Done (aop, r)
          | None -> Pending aop
        else
          (* Combining: our operation may have been folded into another
             thread's install — its batch provenance answers then. *)
          let folded =
            List.find_opt (fun (w, q, _) -> w = tid && q = aseq) cur.batch
          in
          match folded with
          | Some (_, _, Some r) -> Done (aop, r)
          | Some (_, _, None) | None -> Pending aop)

  let resolve t ~tid =
    let sp = Profile.begin_span ~tid Profile.Resolve in
    let r = resolve_unprofiled t ~tid in
    Profile.end_span ~tid sp;
    r

  (** No persistent repairs are needed (helping keeps detection state
      consistent inline); restore the volatile per-thread sequence
      counters from the persisted announce records so post-crash preps
      cannot reuse a live sequence number. *)
  let recover t =
    let sp = Profile.begin_span ~tid:(-1) Profile.Recovery_scan in
    let cur = M.read t.state in
    for i = 0 to t.nthreads - 1 do
      let s = match M.read t.x.(i) with Some a -> a.aseq | None -> 0 in
      let s = if cur.writer = i then max s cur.seq else s in
      (* Batch provenances are live sequence numbers too. *)
      let s =
        List.fold_left
          (fun acc (w, q, _) -> if w = i then max acc q else acc)
          s cur.batch
      in
      if s > t.seqs.(i) then t.seqs.(i) <- s
    done;
    Profile.end_span ~tid:(-1) sp

  let stats t : Detectable_intf.stats =
    { state_words = 1; announce_words = t.nthreads }

  (** Volatile combining telemetry: [(passes, ops_folded)] — the mean
      batch size is [ops_folded / passes].  Both 0 with combining off. *)
  let combining_stats t = (t.batches, t.folded)

  let peek t = (M.read t.state).s
end

(** Shared scaffolding for the linked structures (queue, stack) whose
    exec step is a multi-word pointer swing the one-word engine cannot
    own: the per-thread tagged announce words and their posting
    discipline ({!Announce}), and the Figure-6 recovery passes over them
    ({!Recovery}).  The object keeps its structural code — the swing
    itself and the {!Detectable_intf.LINEARIZATION_HOOK}-shaped
    [took_effect] predicate recovery consults. *)
module Linked (M : Dssq_memory.Memory_intf.S) = struct
  module Pool = Node_pool.Make (M)

  (* Tag added to the popper/deqThreadID mark by non-detectable removals
     so that resolve never mistakes them for the caller's detectable one
     (Section 3.2, last paragraph).  Thread ids must stay below it. *)
  let nondet_mark = 1 lsl 20

  (* The mark a removal by [tid] writes. *)
  let mark ~detectable tid = if detectable then tid else tid lor nondet_mark

  module Announce = struct
    (** Everything detectability-related that queue and stack used to
        carry in their own records: the node pool, the announce words
        [X[0..n-1]], reclamation state, and the deferred-retirement
        lists that keep [resolve]'s targets out of reuse. *)
    type t = {
      pool : Pool.t;
      x : int M.cell array; (* X[1..n] of the paper, indexed by tid *)
      ebr : int Dssq_ebr.Ebr.t;
      deferred : int list ref array;
          (* nodes whose retirement waits until X[tid] is overwritten *)
      pins : int Atomic.t array;
          (* per-thread volatile pin: the node [resolve] reads through
             X[tid] (the announced node, or the queue's dequeued
             successor); [Tagged.null] when nothing is pinned *)
      handed : int list Atomic.t array;
          (* nodes whose free found them pinned by [tid]: reclamation
             handed them over, and [tid] re-retires them once X moves on *)
      reclaim : bool;
      combine : bool;  (* flat-combining batch epochs (DESIGN.md §14) *)
      nthreads : int;
    }

    let create ?wal ?pool_id ?(combine = false) ~xname ~reclaim ~nthreads
        ~capacity () =
      let pool = Pool.create ?wal ?pool_id ~capacity ~nthreads () in
      let pins = Array.init nthreads (fun _ -> Atomic.make Tagged.null) in
      let handed = Array.init nthreads (fun _ -> Atomic.make []) in
      let rec hand_over owner node =
        let cur = Atomic.get handed.(owner) in
        if not (Atomic.compare_and_set handed.(owner) cur (node :: cur)) then
          hand_over owner node
      in
      (* A pin is set before its node can be retired (at announce, or
         inside the reclamation region that claims the node), and a node
         is freed only after a grace period that outlasts that region —
         so the free of a pinned node always sees the pin. *)
      let free ~tid node =
        (* scan down: the lowest pinning thread takes it *)
        let owner = ref (-1) in
        for i = nthreads - 1 downto 0 do
          if Atomic.get pins.(i) = node then owner := i
        done;
        if !owner < 0 then Pool.free pool ~tid node else hand_over !owner node
      in
      {
        pool;
        x =
          Array.init nthreads (fun i ->
              M.alloc
                ~name:(fun () -> xname ^ "[" ^ string_of_int i ^ "]")
                ~placement:Dssq_memory.Memory_intf.Line.Isolated 0);
        ebr = Dssq_ebr.Ebr.create ~nthreads ~free ();
        deferred = Array.init nthreads (fun _ -> ref []);
        pins;
        handed;
        reclaim;
        combine;
        nthreads;
      }

    let rec retire_all ebr ~tid = function
      | [] -> ()
      | n :: rest ->
          Dssq_ebr.Ebr.retire ebr ~tid n;
          retire_all ebr ~tid rest

    (* Retire the nodes whose reclamation was deferred while X[tid]
       still referenced them, and the pinned node if reclamation handed
       it over; called exactly when X[tid] is about to move on. *)
    let release_deferred a ~tid =
      if a.reclaim then begin
        Atomic.set a.pins.(tid) Tagged.null;
        retire_all a.ebr ~tid !(a.deferred.(tid));
        retire_all a.ebr ~tid (Atomic.exchange a.handed.(tid) []);
        a.deferred.(tid) := []
      end

    let retire a ~tid node =
      if a.reclaim then Dssq_ebr.Ebr.retire a.ebr ~tid node

    let defer_retire a ~tid node =
      if a.reclaim then a.deferred.(tid) := node :: !(a.deferred.(tid))

    (* Keep [node] out of reuse until X[tid] moves on: [resolve] reads
       it through X[tid], yet another thread may remove and retire it.
       Volatile only, like the rest of reclamation: a crash clears it. *)
    let pin a ~tid node = if a.reclaim then Atomic.set a.pins.(tid) node

    (* Allocate and persist a fresh node holding [v] (the caller flushes
       [next] too if its object initializes it at alloc time). *)
    let make_node a ~objname ~tid v =
      if v < 0 then
        invalid_arg (objname ^ ": values must be non-negative");
      let node =
        if a.reclaim then Pool.alloc_reclaiming a.pool ~ebr:a.ebr ~tid ~value:v
        else Pool.alloc a.pool ~tid ~value:v
      in
      M.flush (Pool.value a.pool node);
      node

    (* Post [word] into the caller's announce word, persistently. *)
    let post a ~tid word =
      M.write a.x.(tid) word;
      M.flush a.x.(tid)

    (* [post] plus the prep persistence point: a crash after [announce]
       returns must resolve to the announced operation.  The leading
       drain is px86 hardening: the node-field flushes the caller issued
       (see [make_node]) must be durable before the announce word is
       even written — a crash can write the dirty announce line back by
       cache eviction while those flushes still sit in the persist
       buffer, persisting an announcement whose node contents were
       lost.  Eager backends drain at every flush, so both drains are
       no-ops there.  Under combine the backend buffers in per-thread
       store order, so the announce write cannot persist ahead of the
       node-field flushes issued before it — the leading drain is
       subsumed; the trailing drain stays (it is the prep persistence
       point, and the announce must be durable before the operation's
       effect can, which later CASes by {e other} threads' helpers may
       persist out of this thread's FIFO).  An announced node is pinned:
       once inserted, other threads remove and retire it, and
       [resolve_push] must still read its value. *)
    let announce a ~tid word =
      if not a.combine then M.drain ();
      pin a ~tid (Tagged.idx word);
      post a ~tid word;
      M.drain ()

    (* Add [tag] to the caller's current announce word, persistently
       (completion and EMPTY markers). *)
    let tag a ~tid tg = post a ~tid (Tagged.with_tag (M.read a.x.(tid)) tg)

    (* Decode an ENQ_PREP-tagged announce word (push and enqueue share
       the layout: node index plus completion bit). *)
    let resolve_push a x =
      let v = M.read (Pool.value a.pool (Tagged.idx x)) in
      if Tagged.has x Tagged.enq_compl then Queue_intf.Enq_done v
      else Queue_intf.Enq_pending v

    (** Drop all volatile runtime state (reclamation epochs and limbo
        lists, deferred retirements).  Models the process restart that
        precedes any recovery: this state does not survive a real crash,
        and in the simulator it must be discarded explicitly. *)
    let reset_volatile a =
      Dssq_ebr.Ebr.clear a.ebr;
      Array.iter (fun l -> l := []) a.deferred;
      Array.iter (fun p -> Atomic.set p Tagged.null) a.pins;
      Array.iter (fun h -> Atomic.set h []) a.handed

    let stats a ~state_words : Detectable_intf.stats =
      { state_words; announce_words = a.nthreads }
  end

  module Recovery = struct
    (* Set of pool nodes reachable from [start] through [next] links. *)
    let reachable_from (a : Announce.t) start =
      let seen = Array.make (a.pool.Pool.capacity + 1) false in
      let n = ref start in
      while !n <> Tagged.null && not seen.(!n) do
        seen.(!n) <- true;
        n := M.read (Pool.next a.pool !n)
      done;
      seen

    (* Complete the detectability state of effective insertions (queue
       lines 70-76): any announce word still ENQ_PREP-without-COMPL
       whose node [took_effect] — survived into the post-crash structure
       or was already removed-and-marked — gains its completion tag.
       [took_effect] is the object's
       {!Detectable_intf.LINEARIZATION_HOOK} predicate. *)
    let complete_effective (a : Announce.t) ~took_effect =
      let sp = Profile.begin_span ~tid:(-1) Profile.Recovery_complete in
      for i = 0 to a.nthreads - 1 do
        let x = M.read a.x.(i) in
        let d = Tagged.idx x in
        if
          d <> Tagged.null
          && Tagged.has x Tagged.enq_prep
          && (not (Tagged.has x Tagged.enq_compl))
          && took_effect d
        then begin
          M.write a.x.(i) (Tagged.with_tag x Tagged.enq_compl);
          M.flush a.x.(i)
        end
      done;
      Profile.end_span ~tid:(-1) sp

    (* Rebuild the volatile free lists.  Keep nodes that are (a)
       reachable from [new_root], or (b) referenced by some X entry
       (resolve may read them), or (c) whatever [extra] adds (the
       queue's DEQ-successor case: resolve-dequeue reads X->next).
       Kept-but-unreachable nodes are handed to the deferred retirement
       of their referencing thread so they are reclaimed once that
       thread's X moves on; kept nodes are also pinned to that thread,
       the last one kept per X entry (what [resolve] reads) winning.

       Several X entries can reference the SAME node (two removers that
       saved the same predecessor; a DEQ successor that is another
       thread's inserted node).  Defer each node exactly once, or it
       would be retired and freed twice — and a double-freed node gets
       allocated twice and linked into the structure in two places. *)
    let rebuild (a : Announce.t) ~new_root ~extra =
      let sp = Profile.begin_span ~tid:(-1) Profile.Recovery_scan in
      let live = reachable_from a new_root in
      let keep = Array.copy live in
      let deferred_once = Array.make (a.pool.Pool.capacity + 1) false in
      let defer_to i n =
        keep.(n) <- true;
        Announce.pin a ~tid:i n;
        if (not live.(n)) && not deferred_once.(n) then begin
          deferred_once.(n) <- true;
          a.deferred.(i) := n :: !(a.deferred.(i))
        end
      in
      for i = 0 to a.nthreads - 1 do
        let x = M.read a.x.(i) in
        let d = Tagged.idx x in
        if d <> Tagged.null then begin
          defer_to i d;
          extra ~defer:defer_to i x
        end
      done;
      Pool.rebuild_free_lists a.pool ~keep:(fun i -> keep.(i));
      Profile.end_span ~tid:(-1) sp

    (* The keep predicate [rebuild] uses, recomputed without mutating
       anything: reachable from [new_root], referenced by some X entry,
       plus whatever [extra] pins.  This is the reference partition the
       post-recovery audit checks the rebuilt free lists against. *)
    let keep_array (a : Announce.t) ~new_root ~extra =
      let keep = reachable_from a new_root in
      let defer_to _i n = keep.(n) <- true in
      for i = 0 to a.nthreads - 1 do
        let x = M.read a.x.(i) in
        let d = Tagged.idx x in
        if d <> Tagged.null then begin
          defer_to i d;
          extra ~defer:defer_to i x
        end
      done;
      keep

    (** Post-recovery leak audit (read-only): check the free lists and
        the kept set partition the pool exactly.  Call after the
        object's [recover] has run. *)
    let audit (a : Announce.t) ~new_root ~extra =
      let keep = keep_array a ~new_root ~extra in
      Pool.audit a.pool ~keep:(fun i -> keep.(i))
  end
end

(** The detectability functor of the ISSUE/ROADMAP: a new detectable
    object is one packaged specification plus this application. *)
module Make (B : Dssq_spec.Dss_spec.S) (M : Dssq_memory.Memory_intf.S) :
  Detectable_intf.GENERIC
    with type state = B.state
     and type op = B.op
     and type response = B.response = struct
  module E = Make_any (M)

  type state = B.state
  type op = B.op
  type response = B.response
  type t = (state, op, response) E.t

  let name = B.spec.Spec.name

  let create ?name ?combine ?init ~nthreads () =
    E.create ?name:(Option.map Fun.const name)
      ~placement:Dssq_memory.Memory_intf.Line.Isolated ?combine ?init ~nthreads
      B.spec

  let prep = E.prep
  let exec = E.exec
  let base = E.base
  let resolve = E.resolve
  let recover = E.recover
  let stats = E.stats
  let combining_stats = E.combining_stats
  let peek = E.peek
end
