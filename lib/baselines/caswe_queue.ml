(** The CASWithEffect queues of Figure 5b: detectable queues where the
    linked list and the detectability state (the analogue of the DSS
    queue's array [X]) are updated {e atomically together} with a
    persistent multi-word CAS.

    Because the head swing (resp. tail link) commits in the same PMwCAS
    as the update of X, there is no window in which the structure changed
    but the detectability state did not: no [deqThreadID] marking, no
    Figure-6-style reasoning in recovery.  The price is the full PMwCAS
    machinery — descriptor publication, installs, helpers, and many more
    flushes per operation — which is exactly why it scales worst in
    Figure 5b.

    Two variants, as in the paper:
    - {b General}: X is treated as an ordinary shared word (installed,
      CASed, helped like any other).
    - {b Fast}: PMwCAS is told X is private to its owner, skipping the
      install phase for it (the "combination of shared and private
      variables" optimization) — up to ~1.5x faster in the paper. *)

open Dssq_core

module Make (M : Dssq_memory.Memory_intf.S) = struct
  module P = Dssq_pmwcas.Pmwcas.Make (M)

  type t = {
    p : P.t;
    value : int M.cell array; (* plain persistent cells, 1..capacity *)
    next : int array; (* pmwcas word addresses per node *)
    head : int; (* pmwcas word address *)
    tail : int;
    x : int array; (* pmwcas word addresses, per thread *)
    x_kind : [ `Shared | `Private ];
    free_lists : int list Atomic.t array;
    ebr : int Dssq_ebr.Ebr.t;
    reclaim : bool;
    capacity : int;
    nthreads : int;
  }

  let x_prep_enq node = Tagged.with_tag node Tagged.enq_prep
  let x_prep_deq = Tagged.deq_prep

  let create ?(reclaim = true) ~x_kind ~nthreads ~capacity () =
    let nwords = capacity + 3 + nthreads in
    let p = P.create ~nwords ~nthreads ~max_width:2 () in
    let next =
      Array.init (capacity + 1) (fun i ->
          P.alloc p ~name:(fun () -> Printf.sprintf "next[%d]" i) 0)
    in
    let value =
      Array.init (capacity + 1) (fun i ->
          M.alloc ~name:(fun () -> Printf.sprintf "value[%d]" i) 0)
    in
    let free_lists = Array.init nthreads (fun _ -> Atomic.make []) in
    (* Node 1 is the initial sentinel; 2..capacity are free. *)
    for i = capacity downto 2 do
      let owner = (i - 1) mod nthreads in
      Atomic.set free_lists.(owner) (i :: Atomic.get free_lists.(owner))
    done;
    let head = P.alloc p ~name:(fun () -> "head") 1 in
    let tail = P.alloc p ~name:(fun () -> "tail") 1 in
    let x =
      Array.init nthreads (fun i ->
          P.alloc p ~name:(fun () -> Printf.sprintf "X[%d]" i) 0)
    in
    let t =
      {
        p;
        value;
        next;
        head;
        tail;
        x;
        x_kind;
        free_lists;
        ebr = Dssq_ebr.Ebr.create ~nthreads ~free:(fun ~tid:_ _ -> ()) ();
        reclaim;
        capacity;
        nthreads;
      }
    in
    let ebr =
      Dssq_ebr.Ebr.create ~nthreads
        ~free:(fun ~tid:_ node ->
          (* return to the node's home list; atomic for cross-thread *)
          let owner = (node - 1) mod nthreads in
          let rec push () =
            let cur = Atomic.get t.free_lists.(owner) in
            if not (Atomic.compare_and_set t.free_lists.(owner) cur (node :: cur))
            then push ()
          in
          push ())
        ()
    in
    { t with ebr }

  let alloc_node t ~tid v =
    let rec pop () =
      match Atomic.get t.free_lists.(tid) with
      | [] -> None
      | node :: rest as cur ->
          if Atomic.compare_and_set t.free_lists.(tid) cur rest
          then begin
            M.write t.value.(node) v;
            M.flush t.value.(node);
            P.write_quiet t.p t.next.(node) Tagged.null;
            Some node
          end
          else pop ()
    in
    let rec go attempts =
      match pop () with
      | Some node -> node
      | None
        when t.reclaim && attempts < 3_000_000
             && Dssq_ebr.Ebr.pending t.ebr > 0 ->
          (* Pace reclamation: retired nodes may just be waiting out
             their grace period (see Node_pool.alloc_reclaiming). *)
          Dssq_ebr.Ebr.enter t.ebr ~tid;
          Dssq_ebr.Ebr.exit t.ebr ~tid;
          M.fence ();
          go (attempts + 1)
      | None -> raise (Node_pool.Pool_exhausted tid)
    in
    go 0

  let retire t ~tid node =
    if t.reclaim then Dssq_ebr.Ebr.retire t.ebr ~tid node

  (* ------------------------------------------------------------------ *)
  (* Detectable operations                                               *)
  (* ------------------------------------------------------------------ *)

  let prep_enqueue t ~tid v =
    if v < 0 then invalid_arg "Caswe_queue: values must be non-negative";
    let node = alloc_node t ~tid v in
    P.write_quiet t.p t.x.(tid) (x_prep_enq node);
    M.drain () (* persistence point: the node's value flush completes *)

  let exec_enqueue t ~tid =
    Dssq_ebr.Ebr.enter t.ebr ~tid;
    let node = Tagged.idx (P.read t.p ~tid t.x.(tid)) in
    let x_expected = x_prep_enq node in
    let rec loop () =
      let last = P.read t.p ~tid t.tail in
      let next = P.read t.p ~tid t.next.(last) in
      if next = Tagged.null then begin
        if
          P.pmwcas t.p ~tid
            [
              (t.next.(last), Tagged.null, node, `Shared);
              ( t.x.(tid),
                x_expected,
                Tagged.with_tag x_expected Tagged.enq_compl,
                t.x_kind );
            ]
        then ignore (P.cas1 t.p ~tid t.tail ~expected:last ~desired:node)
        else loop ()
      end
      else begin
        ignore (P.cas1 t.p ~tid t.tail ~expected:last ~desired:next);
        loop ()
      end
    in
    loop ();
    M.drain () (* persistence point, while still EBR-protected *);
    Dssq_ebr.Ebr.exit t.ebr ~tid

  let prep_dequeue t ~tid = P.write_quiet t.p t.x.(tid) x_prep_deq

  let exec_dequeue t ~tid =
    Dssq_ebr.Ebr.enter t.ebr ~tid;
    let rec loop () =
      let first = P.read t.p ~tid t.head in
      let last = P.read t.p ~tid t.tail in
      let next = P.read t.p ~tid t.next.(first) in
      if first = last then
        if next = Tagged.null then begin
          if
            P.pmwcas t.p ~tid
              [
                ( t.x.(tid),
                  x_prep_deq,
                  Tagged.with_tag x_prep_deq Tagged.empty,
                  t.x_kind );
              ]
          then Queue_intf.empty_value
          else loop ()
        end
        else begin
          ignore (P.cas1 t.p ~tid t.tail ~expected:last ~desired:next);
          loop ()
        end
      else if
        P.pmwcas t.p ~tid
          [
            (t.head, first, next, `Shared);
            ( t.x.(tid),
              x_prep_deq,
              Tagged.with_tag next (Tagged.deq_prep lor Tagged.deq_done),
              t.x_kind );
          ]
      then begin
        let v = M.read t.value.(next) in
        retire t ~tid first;
        v
      end
      else loop ()
    in
    let v = loop () in
    M.drain () (* persistence point, while still EBR-protected *);
    Dssq_ebr.Ebr.exit t.ebr ~tid;
    v

  let resolve t ~tid =
    let x = P.read t.p ~tid t.x.(tid) in
    if Tagged.has x Tagged.enq_prep then begin
      let v = M.read t.value.(Tagged.idx x) in
      if Tagged.has x Tagged.enq_compl then Queue_intf.Enq_done v
      else Queue_intf.Enq_pending v
    end
    else if Tagged.has x Tagged.deq_prep then begin
      if Tagged.has x Tagged.empty then Queue_intf.Deq_empty
      else if Tagged.has x Tagged.deq_done then
        Queue_intf.Deq_done (M.read t.value.(Tagged.idx x))
      else Queue_intf.Deq_pending
    end
    else Queue_intf.Nothing

  (* ------------------------------------------------------------------ *)
  (* Non-detectable operations (single-word CAS + flush discipline)      *)
  (* ------------------------------------------------------------------ *)

  let enqueue t ~tid v =
    if v < 0 then invalid_arg "Caswe_queue: values must be non-negative";
    let node = alloc_node t ~tid v in
    Dssq_ebr.Ebr.enter t.ebr ~tid;
    let rec loop () =
      let last = P.read t.p ~tid t.tail in
      let next = P.read t.p ~tid t.next.(last) in
      if next = Tagged.null then begin
        if P.cas1 t.p ~tid t.next.(last) ~expected:Tagged.null ~desired:node
        then begin
          P.flush_word t.p t.next.(last);
          ignore (P.cas1 t.p ~tid t.tail ~expected:last ~desired:node)
        end
        else loop ()
      end
      else begin
        P.flush_word t.p t.next.(last);
        ignore (P.cas1 t.p ~tid t.tail ~expected:last ~desired:next);
        loop ()
      end
    in
    loop ();
    M.drain () (* persistence point, while still EBR-protected *);
    Dssq_ebr.Ebr.exit t.ebr ~tid

  let dequeue t ~tid =
    Dssq_ebr.Ebr.enter t.ebr ~tid;
    let rec loop () =
      let first = P.read t.p ~tid t.head in
      let last = P.read t.p ~tid t.tail in
      let next = P.read t.p ~tid t.next.(first) in
      if first = last then
        if next = Tagged.null then Queue_intf.empty_value
        else begin
          P.flush_word t.p t.next.(last);
          ignore (P.cas1 t.p ~tid t.tail ~expected:last ~desired:next);
          loop ()
        end
      else begin
        let v = M.read t.value.(next) in
        if P.cas1 t.p ~tid t.head ~expected:first ~desired:next then begin
          P.flush_word t.p t.head;
          retire t ~tid first;
          v
        end
        else loop ()
      end
    in
    let v = loop () in
    M.drain () (* persistence point, while still EBR-protected *);
    Dssq_ebr.Ebr.exit t.ebr ~tid;
    v

  (* ------------------------------------------------------------------ *)
  (* Recovery                                                            *)
  (* ------------------------------------------------------------------ *)

  let recover t =
    Dssq_ebr.Ebr.clear t.ebr;
    P.recover t.p;
    (* Head and X are mutually consistent by construction; only the
       (deliberately unflushed) tail may lag.  Repair it, then rebuild
       the free lists. *)
    let rec last n =
      let next = M.read (P.cell t.p t.next.(n)) in
      if next = Tagged.null then n else last next
    in
    let head_node = M.read (P.cell t.p t.head) in
    P.write_quiet t.p t.tail (last head_node);
    let live = Array.make (t.capacity + 1) false in
    let rec mark n =
      if n <> Tagged.null && not live.(n) then begin
        mark (M.read (P.cell t.p t.next.(n)));
        live.(n) <- true
      end
    in
    mark head_node;
    for i = 0 to t.nthreads - 1 do
      let x = M.read (P.cell t.p t.x.(i)) in
      if Tagged.idx x <> Tagged.null then live.(Tagged.idx x) <- true
    done;
    Array.iter (fun l -> Atomic.set l []) t.free_lists;
    for i = t.capacity downto 1 do
      if not live.(i) then begin
        P.write_quiet t.p t.next.(i) Tagged.null;
        let owner = (i - 1) mod t.nthreads in
        Atomic.set t.free_lists.(owner) (i :: Atomic.get t.free_lists.(owner))
      end
    done;
    M.drain ()

  let to_list t =
    let rec collect acc n =
      let next = M.read (P.cell t.p t.next.(n)) in
      if next = Tagged.null then List.rev acc
      else collect (M.read t.value.(next) :: acc) next
    in
    collect [] (M.read (P.cell t.p t.head))
end

(** The two Figure 5b variants. *)
module General (M : Dssq_memory.Memory_intf.S) = struct
  include Make (M)

  let name = "general-caswe-queue"
  let create ?reclaim ~nthreads ~capacity () =
    create ?reclaim ~x_kind:`Shared ~nthreads ~capacity ()

  let of_config (cfg : Queue_intf.config) =
    create ~reclaim:cfg.reclaim ~nthreads:cfg.nthreads ~capacity:cfg.capacity
      ()
end

module Fast (M : Dssq_memory.Memory_intf.S) = struct
  include Make (M)

  let name = "fast-caswe-queue"
  let create ?reclaim ~nthreads ~capacity () =
    create ?reclaim ~x_kind:`Private ~nthreads ~capacity ()

  let of_config (cfg : Queue_intf.config) =
    create ~reclaim:cfg.reclaim ~nthreads:cfg.nthreads ~capacity:cfg.capacity
      ()
end
