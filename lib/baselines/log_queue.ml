(** Our implementation of Friedman et al.'s detectable {e log queue}
    (PPoPP 2018), the strongest detectable baseline of Figure 5b.

    Unlike the DSS queue, whose per-thread detectability word [X] is
    statically allocated and effectively private, the log queue allocates
    a fresh {e log entry} per operation — (announcement, node, result)
    persistent words drawn from a per-thread ring — and other threads
    write into a dequeuer's log when helping (Section 4: "operation
    arguments and return values are stored directly in the logs, and are
    accessed by other threads via helping mechanisms").  The extra
    allocation, flushes, and shared log traffic are what Figure 5b
    charges it for relative to the DSS queue.

    A node claims its dequeuer by CASing the claimer's {e log entry
    index} into [deq_tid]; -1 means unclaimed and 0 means claimed by a
    non-detectable dequeue.  Helpers publish the dequeued value into the
    claimer's log with a CAS from the "no result" sentinel, so a stale
    helper cannot clobber a recycled entry (the ring must be deeper than
    any realistic helping lag; see DESIGN.md deviations). *)

open Dssq_core

module Make (M : Dssq_memory.Memory_intf.S) = struct
  module Pool = Node_pool.Make (M)

  let name = "log-queue"
  let ring_size = 128
  let no_result = -2

  type t = {
    pool : Pool.t;
    head : int M.cell;
    tail : int M.cell;
    (* Log entries, indexed 1 .. nthreads*ring_size. *)
    log_ann : int M.cell array; (* value | ENQ_PREP, or DEQ_PREP *)
    log_node : int M.cell array; (* node an enqueue entry is inserting *)
    log_result : int M.cell array;
    announce : int M.cell array; (* L[tid]: current entry index *)
    enq_log : int M.cell array; (* per node: enqueuer's entry index *)
    ring_pos : int array; (* volatile, thread-local *)
    ebr : int Dssq_ebr.Ebr.t;
    nthreads : int;
  }

  let create ~nthreads ~capacity =
    let pool = Pool.create ~capacity ~nthreads () in
    let sentinel = Pool.alloc pool ~tid:0 ~value:0 in
    M.flush (Pool.value pool sentinel);
    M.flush (Pool.next pool sentinel);
    let head = M.alloc ~name:(fun () -> "head") sentinel in
    let tail = M.alloc ~name:(fun () -> "tail") sentinel in
    M.flush head;
    M.flush tail;
    M.drain ();
    let nentries = (nthreads * ring_size) + 1 in
    let mk name init =
      Array.init nentries (fun i ->
          M.alloc ~name:(fun () -> Printf.sprintf "%s[%d]" name i) init)
    in
    {
      pool;
      head;
      tail;
      log_ann = mk "log_ann" 0;
      log_node = mk "log_node" 0;
      log_result = mk "log_result" no_result;
      announce =
        Array.init nthreads (fun i ->
            M.alloc ~name:(fun () -> Printf.sprintf "L[%d]" i) 0);
      enq_log =
        Array.init (capacity + 1) (fun i ->
            M.alloc ~name:(fun () -> Printf.sprintf "enq_log[%d]" i) 0);
      ring_pos = Array.make nthreads 0;
      ebr =
        Dssq_ebr.Ebr.create ~nthreads
          ~free:(fun ~tid node -> Pool.free pool ~tid node)
          ();
      nthreads;
    }

  let of_config (cfg : Queue_intf.config) =
    create ~nthreads:cfg.nthreads ~capacity:cfg.capacity

  (* Allocate the next log entry from [tid]'s ring. *)
  let fresh_entry t ~tid =
    let slot = t.ring_pos.(tid) in
    t.ring_pos.(tid) <- (slot + 1) mod ring_size;
    (tid * ring_size) + slot + 1

  (* ------------------------------------------------------------------ *)
  (* Enqueue                                                             *)
  (* ------------------------------------------------------------------ *)

  let prep_enqueue t ~tid v =
    if v < 0 then invalid_arg "Log_queue: values must be non-negative";
    let e = fresh_entry t ~tid in
    M.write t.log_ann.(e) (Tagged.with_tag v Tagged.enq_prep);
    M.flush t.log_ann.(e);
    M.write t.log_result.(e) no_result;
    M.flush t.log_result.(e);
    M.write t.log_node.(e) Tagged.null;
    M.flush t.log_node.(e);
    M.write t.announce.(tid) e;
    M.flush t.announce.(tid);
    (* Persistence point: the log entry and its announcement are durable
       when prep returns (no-op on eager backends). *)
    M.drain ()

  let link_node t ~tid node =
    Dssq_ebr.Ebr.enter t.ebr ~tid;
    let rec loop () =
      let last = M.read t.tail in
      let next = M.read (Pool.next t.pool last) in
      if last = M.read t.tail then
        if next = Tagged.null then begin
          if M.cas (Pool.next t.pool last) ~expected:Tagged.null ~desired:node
          then begin
            M.flush (Pool.next t.pool last);
            ignore (M.cas t.tail ~expected:last ~desired:node)
          end
          else loop ()
        end
        else begin
          M.flush (Pool.next t.pool last);
          ignore (M.cas t.tail ~expected:last ~desired:next);
          loop ()
        end
      else loop ()
    in
    loop ();
    M.drain () (* persistence point, while still EBR-protected *);
    Dssq_ebr.Ebr.exit t.ebr ~tid

  let exec_enqueue t ~tid =
    let e = M.read t.announce.(tid) in
    let v = Tagged.idx (M.read t.log_ann.(e)) in
    let node = Pool.alloc_reclaiming t.pool ~ebr:t.ebr ~tid ~value:v in
    M.flush (Pool.value t.pool node);
    M.flush (Pool.next t.pool node);
    M.write t.enq_log.(node) e;
    M.flush t.enq_log.(node);
    (* Announce the node in the log before linking, so recovery can tell
       whether this entry's insertion took effect. *)
    M.write t.log_node.(e) node;
    M.flush t.log_node.(e);
    link_node t ~tid node;
    M.write t.log_result.(e) 0 (* OK *);
    M.flush t.log_result.(e);
    M.drain () (* persistence point *)

  let enqueue t ~tid v =
    if v < 0 then invalid_arg "Log_queue: values must be non-negative";
    let node = Pool.alloc_reclaiming t.pool ~ebr:t.ebr ~tid ~value:v in
    M.flush (Pool.value t.pool node);
    M.flush (Pool.next t.pool node);
    link_node t ~tid node

  (* ------------------------------------------------------------------ *)
  (* Dequeue                                                             *)
  (* ------------------------------------------------------------------ *)

  let prep_dequeue t ~tid =
    let e = fresh_entry t ~tid in
    M.write t.log_ann.(e) Tagged.deq_prep;
    M.flush t.log_ann.(e);
    M.write t.log_result.(e) no_result;
    M.flush t.log_result.(e);
    M.write t.announce.(tid) e;
    M.flush t.announce.(tid);
    M.drain () (* persistence point, as in prep_enqueue *)

  (* Publish value [v] as entry [e]'s result, helping-safely. *)
  let publish_result t e v =
    if M.read t.log_result.(e) = no_result then begin
      ignore (M.cas t.log_result.(e) ~expected:no_result ~desired:v);
      M.flush t.log_result.(e)
    end

  (* [claim] is the log-entry index to CAS into deq_tid; 0 for the
     non-detectable path. *)
  let dequeue_body t ~tid ~claim =
    Dssq_ebr.Ebr.enter t.ebr ~tid;
    let rec loop () =
      let first = M.read t.head in
      let last = M.read t.tail in
      let next = M.read (Pool.next t.pool first) in
      if first = M.read t.head then
        if first = last then
          if next = Tagged.null then begin
            if claim <> 0 then begin
              M.write t.log_result.(claim) Queue_intf.empty_value;
              M.flush t.log_result.(claim)
            end;
            Queue_intf.empty_value
          end
          else begin
            M.flush (Pool.next t.pool last);
            ignore (M.cas t.tail ~expected:last ~desired:next);
            loop ()
          end
        else if M.cas (Pool.deq_tid t.pool next) ~expected:(-1) ~desired:claim
        then begin
          M.flush (Pool.deq_tid t.pool next);
          let v = M.read (Pool.value t.pool next) in
          if claim <> 0 then publish_result t claim v;
          ignore (M.cas t.head ~expected:first ~desired:next);
          (* Persist the head advance before recycling the old sentinel
             (crash-safe reuse; see DESIGN.md deviations). *)
          M.flush t.head;
          Dssq_ebr.Ebr.retire t.ebr ~tid first;
          v
        end
        else if M.read t.head = first then begin
          (* help: publish into the claimer's log, then swing head *)
          let claimer_entry = M.read (Pool.deq_tid t.pool next) in
          M.flush (Pool.deq_tid t.pool next);
          if claimer_entry > 0 then
            publish_result t claimer_entry (M.read (Pool.value t.pool next));
          ignore (M.cas t.head ~expected:first ~desired:next);
          loop ()
        end
        else loop ()
      else loop ()
    in
    let v = loop () in
    M.drain () (* persistence point, while still EBR-protected *);
    Dssq_ebr.Ebr.exit t.ebr ~tid;
    v

  let exec_dequeue t ~tid =
    dequeue_body t ~tid ~claim:(M.read t.announce.(tid))

  let dequeue t ~tid = dequeue_body t ~tid ~claim:0

  (* ------------------------------------------------------------------ *)
  (* Detection and recovery                                              *)
  (* ------------------------------------------------------------------ *)

  let resolve t ~tid =
    let e = M.read t.announce.(tid) in
    if e = 0 then Queue_intf.Nothing
    else begin
      let ann = M.read t.log_ann.(e) in
      let result = M.read t.log_result.(e) in
      if Tagged.has ann Tagged.enq_prep then
        if result = no_result then Queue_intf.Enq_pending (Tagged.idx ann)
        else Queue_intf.Enq_done (Tagged.idx ann)
      else if result = no_result then Queue_intf.Deq_pending
      else if result = Queue_intf.empty_value then Queue_intf.Deq_empty
      else Queue_intf.Deq_done result
    end

  (** Centralized recovery.  Unlike the DSS queue's, this phase is
      {e mandatory} for detection — the log queue depends on the system
      running it before threads resolve (the auxiliary-state contrast of
      Section 5 of the paper). *)
  let recover t =
    Dssq_ebr.Ebr.clear t.ebr;
    let old_head = M.read t.head in
    (* Complete dequeue results for marked nodes, then advance head. *)
    let rec advance n =
      let next = M.read (Pool.next t.pool n) in
      if next <> Tagged.null && M.read (Pool.deq_tid t.pool next) <> -1 then begin
        let e = M.read (Pool.deq_tid t.pool next) in
        if e > 0 then publish_result t e (M.read (Pool.value t.pool next));
        advance next
      end
      else n
    in
    let new_head = advance old_head in
    M.write t.head new_head;
    M.flush t.head;
    let rec last n =
      let next = M.read (Pool.next t.pool n) in
      if next = Tagged.null then n else last next
    in
    M.write t.tail (last new_head);
    M.flush t.tail;
    (* Complete enqueue results: the announced node took effect iff it is
       reachable or was already dequeued (marked). *)
    let reachable = Array.make (t.pool.Pool.capacity + 1) false in
    let rec mark n =
      if n <> Tagged.null && not reachable.(n) then begin
        reachable.(n) <- true;
        mark (M.read (Pool.next t.pool n))
      end
    in
    mark old_head;
    for tid = 0 to t.nthreads - 1 do
      let e = M.read t.announce.(tid) in
      if e <> 0 && Tagged.has (M.read t.log_ann.(e)) Tagged.enq_prep then begin
        let node = M.read t.log_node.(e) in
        if
          node <> Tagged.null
          && M.read t.log_result.(e) = no_result
          && (reachable.(node) || M.read (Pool.deq_tid t.pool node) <> -1)
        then begin
          M.write t.log_result.(e) 0;
          M.flush t.log_result.(e)
        end
      end
    done;
    (* Rebuild free lists: keep live nodes and log-referenced nodes. *)
    let live = Array.make (t.pool.Pool.capacity + 1) false in
    let rec mark_live n =
      if n <> Tagged.null && not live.(n) then begin
        live.(n) <- true;
        mark_live (M.read (Pool.next t.pool n))
      end
    in
    mark_live new_head;
    for tid = 0 to t.nthreads - 1 do
      let e = M.read t.announce.(tid) in
      if e <> 0 then begin
        let node = M.read t.log_node.(e) in
        if node <> Tagged.null then live.(node) <- true
      end
    done;
    Pool.rebuild_free_lists t.pool ~keep:(fun i -> live.(i));
    M.drain ()

  let to_list t =
    let rec skip n =
      let next = M.read (Pool.next t.pool n) in
      if next <> Tagged.null && M.read (Pool.deq_tid t.pool next) <> -1 then
        skip next
      else n
    in
    let rec collect acc n =
      let next = M.read (Pool.next t.pool n) in
      if next = Tagged.null then List.rev acc
      else collect (M.read (Pool.value t.pool next) :: acc) next
    in
    collect [] (skip (M.read t.head))
end
