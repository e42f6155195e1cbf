(** Pre-allocated persistent queue-node pools.

    The paper's evaluation pre-allocates a fixed pool of queue nodes per
    thread and recycles dequeued nodes through epoch-based reclamation
    (Section 4).  A node is a triple of persistent words:

    - [value]: the enqueued value;
    - [next]: index of the successor node, 0 = NULL;
    - [deq_tid]: id of the thread that dequeued the value stored in this
      node ([deqThreadID] in the paper); -1 means unmarked.

    Node 0 is reserved as NULL; valid indices are [1 .. capacity].
    A node's three words are laid out as one line-aligned block (see
    {!Dssq_memory.Memory_intf.S.alloc_block}), so with a realistic line
    size they share a persist line and one flush covers all three.
    Free lists are volatile (rebuilt from the persistent structure after
    a crash) and atomic: a freed node returns to its {e home} thread's
    list — whoever retired it — so sustained producer/consumer imbalance
    cannot starve one thread while another hoards. *)

exception Pool_exhausted of int (* tid *)

(** Result of a post-recovery free-list audit: how [1 .. capacity]
    partitions between the rebuilt free lists and the kept (reachable
    or pinned) set.  A correct recovery leaves both [leaked] (in
    neither) and [dual] (in both, or double-freed) empty, and the
    log-then-link discipline makes that so by construction — the audit
    is the checkable witness. *)
type audit_report = {
  kept_nodes : int;
  free_nodes : int;
  leaked : int list;
  dual : int list;
}

module Make (M : Dssq_memory.Memory_intf.S) = struct
  module Padded = Dssq_memory.Memory_intf.Padded
  module Wal = Dssq_pmem.Wal.Make (M)

  type t = {
    value : int M.cell array;
    next : int M.cell array;
    deq_tid : int M.cell array;
    capacity : int;
    nthreads : int;
    free_lists : int list Padded.t array;
        (* per-thread shards, each padded to cache-line stride: adjacent
           threads' heads would otherwise share a physical line and every
           push/pop would ping-pong it between domains *)
    wal : Wal.t option;
        (* when present, every alloc/free intent is durably logged
           before the node state changes (log-then-link) *)
    pool_id : int;  (* distinguishes pools sharing one log *)
  }

  let home t i = (i - 1) mod t.nthreads

  let rec push_free lists owner i =
    let cur = Padded.get lists.(owner) in
    if not (Padded.compare_and_set lists.(owner) cur (i :: cur)) then
      push_free lists owner i

  (* The popped node, or [Tagged.null] when the list is empty. *)
  let rec pop_free lists owner =
    match Padded.get lists.(owner) with
    | [] -> Tagged.null
    | i :: rest as cur ->
        (* NB compare_and_set is physical equality: reuse the read value. *)
        if Padded.compare_and_set lists.(owner) cur rest then i
        else pop_free lists owner

  let create ?wal ?(pool_id = 0) ~capacity ~nthreads () =
    (* Each node's three words are allocated as one block, so they share
       a persist line (at the default line size): persisting a freshly
       initialized node costs one write-back, not three.  Blocks start at
       line boundaries, so distinct nodes never share a line and there is
       no false sharing between them.  The arrays are per-field views
       over the same cells, filled as the blocks are allocated. *)
    let node i =
      M.alloc_block
        ~name:(fun () -> "node" ^ string_of_int i)
        [ 0; Tagged.null; -1 ]
    in
    let value, next, deq_tid =
      match node 0 with
      | [ v; n; d ] ->
          let a x = Array.make (capacity + 1) x in
          (a v, a n, a d)
      | _ -> assert false
    in
    for i = 1 to capacity do
      match node i with
      | [ v; n; d ] ->
          value.(i) <- v;
          next.(i) <- n;
          deq_tid.(i) <- d
      | _ -> assert false
    done;
    let free_lists = Array.init nthreads (fun _ -> Padded.make []) in
    (* Stripe nodes across threads; reversed so threads pop low indices
       first, which keeps tests readable. *)
    for i = capacity downto 1 do
      let owner = (i - 1) mod nthreads in
      Padded.set free_lists.(owner) (i :: Padded.get free_lists.(owner))
    done;
    {
      value;
      next;
      deq_tid;
      capacity;
      nthreads;
      free_lists;
      wal;
      pool_id;
    }

  let value t i = t.value.(i)
  let next t i = t.next.(i)
  let deq_tid t i = t.deq_tid.(i)

  (* Log-then-link: durably record the transition before the node's
     state changes.  The lane is the calling thread, so concurrent
     allocators never contend on a log slot. *)
  let log t ~tid kind i =
    match t.wal with
    | None -> ()
    | Some w -> Wal.append w ~lane:tid ~kind ~a:i ~b:t.pool_id

  (** Pop a node from [tid]'s free list and initialize its [value] and
      [next] fields (volatile only; callers flush per their persistence
      protocol).  [deq_tid] is already -1, persistently: it is reset when
      the node is freed, so a recycled node can never be observed marked
      after it becomes reachable.

      With a WAL attached, the allocation intent is logged and persisted
      {e before} the node is touched: a crash at any point between here
      and the node becoming reachable replays the intent, finds the node
      unreachable, and returns it to a free list — leaking it is
      impossible by construction. *)
  let alloc t ~tid ~value =
    let i = pop_free t.free_lists tid in
    if i = Tagged.null then raise (Pool_exhausted tid);
    log t ~tid Dssq_pmem.Wal.Codec.kind_alloc i;
    M.write t.value.(i) value;
    M.write t.next.(i) Tagged.null;
    i

  (** Like [alloc], but when the free list is momentarily dry because
      retired nodes are still waiting out their grace period (typical on
      oversubscribed cores, where a preempted in-region thread stalls the
      epoch), paces reclamation forward and retries before giving up.
      The fence doubles as a scheduling point on the simulator backend so
      other simulated threads can exit their regions. *)
  let alloc_reclaiming t ~ebr ~tid ~value =
    match alloc t ~tid ~value with
    | node -> node
    | exception Pool_exhausted _ ->
        let rec go attempts =
          Dssq_ebr.Ebr.enter ebr ~tid;
          Dssq_ebr.Ebr.exit ebr ~tid;
          M.fence ();
          match alloc t ~tid ~value with
          | node -> node
          | exception Pool_exhausted _
            when attempts < 3_000_000 && Dssq_ebr.Ebr.pending ebr > 0 ->
              (* Something is in limbo: keep pacing the epochs. *)
              go (attempts + 1)
        in
        go 0

  (** Return node [i] to its home thread's free list (regardless of who
      retired it).  The unmarked state is made persistent here, off the
      enqueue critical path. *)
  let free t ~tid i =
    log t ~tid Dssq_pmem.Wal.Codec.kind_free i;
    M.write t.deq_tid.(i) (-1);
    M.flush t.deq_tid.(i);
    (* The unmark must be durable before the node becomes allocatable:
       once reused and reachable it may no longer look marked after a
       crash.  Under coalescing the flush above is only buffered, so
       complete it here. *)
    M.drain ();
    push_free t.free_lists (home t i) i

  let free_count t =
    Array.fold_left
      (fun acc l -> acc + List.length (Padded.get l))
      0 t.free_lists

  (* Store [v] only if the word does not already hold it; the caller
     flushes either way (DESIGN.md §12). *)
  let reset (c : int M.cell) v = if M.read c <> v then M.write c v

  (** Rebuild all free lists after a crash: every node for which [keep]
      is false becomes available again, striped across threads.  Used by
      the recovery procedure with [keep] = "reachable from head or
      referenced by some X entry".  A free node's words are stored only
      when they differ from the reset values, but always flushed: a
      dirty line persists the value, a clean one already holds it
      durably, and the heap elides that flush at line sizes >= 2. *)
  let rebuild_free_lists t ~keep =
    (* Each owner's list is built locally and published once, not one
       atomic set per node. *)
    let lists = Array.make t.nthreads [] in
    for i = t.capacity downto 1 do
      if not (keep i) then begin
        reset t.deq_tid.(i) (-1);
        M.flush t.deq_tid.(i);
        reset t.next.(i) Tagged.null;
        M.flush t.next.(i);
        let owner = home t i in
        lists.(owner) <- i :: lists.(owner)
      end
    done;
    Array.iteri (fun owner l -> Padded.set t.free_lists.(owner) l) lists;
    M.drain ()

  (** Check that [keep] and the current free lists partition
      [1 .. capacity] exactly: no node both free and kept, none in
      neither, none on two free lists.  Read-only; run after
      {!rebuild_free_lists} to certify a recovery leaked nothing. *)
  let audit t ~keep =
    let free_count = Array.make (t.capacity + 1) 0 in
    Array.iter
      (fun l ->
        List.iter (fun i -> free_count.(i) <- free_count.(i) + 1) (Padded.get l))
      t.free_lists;
    let leaked = ref [] and dual = ref [] in
    let kept_nodes = ref 0 and free_nodes = ref 0 in
    for i = t.capacity downto 1 do
      let k = keep i and f = free_count.(i) in
      if f > 1 || (k && f > 0) then dual := i :: !dual
      else if k then incr kept_nodes
      else if f = 1 then incr free_nodes
      else leaked := i :: !leaked
    done;
    {
      kept_nodes = !kept_nodes;
      free_nodes = !free_nodes;
      leaked = !leaked;
      dual = !dual;
    }
end
