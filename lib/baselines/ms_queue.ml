(** Michael & Scott's classic lock-free queue (PODC 1996) — the volatile
    baseline of Figure 5a.

    Per Section 4 of the paper, this is "obtained from the non-detectable
    DSS queue by removing flushes in enqueue and dequeue"; with no
    persistence there is no need for the [deqThreadID] marking either, so
    dequeue claims a node by swinging [head] directly, as in the original
    algorithm.  Not recoverable: after a crash its contents are garbage. *)

open Dssq_core

module Make (M : Dssq_memory.Memory_intf.S) = struct
  module Pool = Node_pool.Make (M)

  let name = "ms-queue"

  type t = {
    pool : Pool.t;
    head : int M.cell;
    tail : int M.cell;
    ebr : int Dssq_ebr.Ebr.t;
  }

  let create ~nthreads ~capacity =
    let pool = Pool.create ~capacity ~nthreads () in
    let sentinel = Pool.alloc pool ~tid:0 ~value:0 in
    {
      pool;
      head = M.alloc ~name:(fun () -> "head") sentinel;
      tail = M.alloc ~name:(fun () -> "tail") sentinel;
      ebr =
        Dssq_ebr.Ebr.create ~nthreads
          ~free:(fun ~tid node -> Pool.free pool ~tid node)
          ();
    }

  let of_config (cfg : Queue_intf.config) =
    create ~nthreads:cfg.nthreads ~capacity:cfg.capacity

  let enqueue t ~tid v =
    let node = Pool.alloc_reclaiming t.pool ~ebr:t.ebr ~tid ~value:v in
    Dssq_ebr.Ebr.enter t.ebr ~tid;
    let rec loop () =
      let last = M.read t.tail in
      let next = M.read (Pool.next t.pool last) in
      if last = M.read t.tail then
        if next = Tagged.null then begin
          if M.cas (Pool.next t.pool last) ~expected:Tagged.null ~desired:node
          then ignore (M.cas t.tail ~expected:last ~desired:node)
          else loop ()
        end
        else begin
          ignore (M.cas t.tail ~expected:last ~desired:next);
          loop ()
        end
      else loop ()
    in
    loop ();
    Dssq_ebr.Ebr.exit t.ebr ~tid

  let dequeue t ~tid =
    Dssq_ebr.Ebr.enter t.ebr ~tid;
    let rec loop () =
      let first = M.read t.head in
      let last = M.read t.tail in
      let next = M.read (Pool.next t.pool first) in
      if first = M.read t.head then
        if first = last then
          if next = Tagged.null then Queue_intf.empty_value
          else begin
            ignore (M.cas t.tail ~expected:last ~desired:next);
            loop ()
          end
        else begin
          let v = M.read (Pool.value t.pool next) in
          if M.cas t.head ~expected:first ~desired:next then begin
            Dssq_ebr.Ebr.retire t.ebr ~tid first;
            v
          end
          else loop ()
        end
      else loop ()
    in
    let v = loop () in
    Dssq_ebr.Ebr.exit t.ebr ~tid;
    v

  let to_list t =
    let rec collect acc n =
      let next = M.read (Pool.next t.pool n) in
      if next = Tagged.null then List.rev acc
      else collect (M.read (Pool.value t.pool next) :: acc) next
    in
    collect [] (M.read t.head)
end
