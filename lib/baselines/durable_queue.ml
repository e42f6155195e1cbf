(** The durable queue of Friedman, Herlihy, Marathe & Petrank
    (PPoPP 2018): recoverable but {e not} detectable.

    This is the algorithm the DSS queue descends from (Section 3 of the
    paper): the MS queue plus the flushes needed under a volatile cache,
    the [deqThreadID] marking, and a [returnedValues] array through which
    dequeued values are reported — which the DSS queue removes in favour
    of the X array.  Recovery completes pending dequeues by publishing
    their values in [returnedValues]; there is no way for a thread to ask
    whether its {e own} interrupted operation took effect, which is
    exactly the gap detectability fills. *)

open Dssq_core

module Make (M : Dssq_memory.Memory_intf.S) = struct
  module Pool = Node_pool.Make (M)

  let name = "durable-queue"

  type t = {
    pool : Pool.t;
    head : int M.cell;
    tail : int M.cell;
    returned_values : int M.cell array; (* -2 = no pending result *)
    ebr : int Dssq_ebr.Ebr.t;
    nthreads : int;
  }

  let no_result = -2

  let create ~nthreads ~capacity =
    let pool = Pool.create ~capacity ~nthreads () in
    let sentinel = Pool.alloc pool ~tid:0 ~value:0 in
    M.flush (Pool.value pool sentinel);
    M.flush (Pool.next pool sentinel);
    let head = M.alloc ~name:(fun () -> "head") sentinel in
    let tail = M.alloc ~name:(fun () -> "tail") sentinel in
    M.flush head;
    M.flush tail;
    {
      pool;
      head;
      tail;
      returned_values =
        Array.init nthreads (fun i ->
            M.alloc
              ~name:(fun () -> Printf.sprintf "returnedValues[%d]" i)
              no_result);
      ebr =
        Dssq_ebr.Ebr.create ~nthreads
          ~free:(fun ~tid node -> Pool.free pool ~tid node)
          ();
      nthreads;
    }

  let of_config (cfg : Queue_intf.config) =
    create ~nthreads:cfg.nthreads ~capacity:cfg.capacity

  let enqueue t ~tid v =
    let node = Pool.alloc_reclaiming t.pool ~ebr:t.ebr ~tid ~value:v in
    M.flush (Pool.value t.pool node);
    M.flush (Pool.next t.pool node);
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
    Dssq_ebr.Ebr.exit t.ebr ~tid

  let dequeue t ~tid =
    M.write t.returned_values.(tid) no_result;
    M.flush t.returned_values.(tid);
    Dssq_ebr.Ebr.enter t.ebr ~tid;
    let rec loop () =
      let first = M.read t.head in
      let last = M.read t.tail in
      let next = M.read (Pool.next t.pool first) in
      if first = M.read t.head then
        if first = last then
          if next = Tagged.null then begin
            M.write t.returned_values.(tid) Queue_intf.empty_value;
            M.flush t.returned_values.(tid);
            Queue_intf.empty_value
          end
          else begin
            M.flush (Pool.next t.pool last);
            ignore (M.cas t.tail ~expected:last ~desired:next);
            loop ()
          end
        else if M.cas (Pool.deq_tid t.pool next) ~expected:(-1) ~desired:tid
        then begin
          M.flush (Pool.deq_tid t.pool next);
          let v = M.read (Pool.value t.pool next) in
          M.write t.returned_values.(tid) v;
          M.flush t.returned_values.(tid);
          ignore (M.cas t.head ~expected:first ~desired:next);
          (* Persist the head advance before recycling the old sentinel
             (crash-safe reuse; see DESIGN.md deviations). *)
          M.flush t.head;
          Dssq_ebr.Ebr.retire t.ebr ~tid first;
          v
        end
        else if M.read t.head = first then begin
          (* help: publish the claimer's value, then swing head *)
          let claimer = M.read (Pool.deq_tid t.pool next) in
          M.flush (Pool.deq_tid t.pool next);
          if claimer >= 0 && claimer < t.nthreads then begin
            let v = M.read (Pool.value t.pool next) in
            if M.read t.returned_values.(claimer) = no_result then begin
              M.write t.returned_values.(claimer) v;
              M.flush t.returned_values.(claimer)
            end
          end;
          ignore (M.cas t.head ~expected:first ~desired:next);
          loop ()
        end
        else loop ()
      else loop ()
    in
    let v = loop () in
    Dssq_ebr.Ebr.exit t.ebr ~tid;
    v

  (** Centralized recovery: complete pending dequeues by publishing their
      values, then repair head and tail, as in the original paper. *)
  let recover t =
    Dssq_ebr.Ebr.clear t.ebr;
    let old_head = M.read t.head in
    let rec advance n =
      let next = M.read (Pool.next t.pool n) in
      if next <> Tagged.null && M.read (Pool.deq_tid t.pool next) <> -1 then begin
        let claimer = M.read (Pool.deq_tid t.pool next) in
        if claimer >= 0 && claimer < t.nthreads then begin
          let v = M.read (Pool.value t.pool next) in
          M.write t.returned_values.(claimer) v;
          M.flush t.returned_values.(claimer)
        end;
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
    M.flush t.tail

  (** Value published for thread [tid]'s last dequeue, if any — this is
      the full extent of the durable queue's post-crash information. *)
  let returned_value t ~tid =
    let v = M.read t.returned_values.(tid) in
    if v = no_result then None else Some v

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
