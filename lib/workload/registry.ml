(** Uniform access to every queue implementation, as closure records
    ({!Dssq_core.Queue_intf.ops}), over any memory backend.  This is what
    the benchmark harness and the CLI dispatch on.

    Every constructor takes the shared {!Dssq_core.Queue_intf.config}
    record, and every [ops] carries a [stats] hook surfacing whatever
    per-queue gauges the implementation has (pool occupancy for the
    pool-backed queues; empty for the rest).

    Constructors also accept an optional whole-system recovery handle
    ({!Dssq_core.Recovery.Make}): when given, the queue registers a
    named durable root with the system's root directory — instead of
    recovery relying on whoever still holds a volatile reference — and
    its [recover] (plus, for the pool-backed DSS queue, a post-recovery
    leak audit over a write-ahead-logged allocator) runs on every
    system-level [reattach]. *)

open Dssq_core

module Make (M : Dssq_memory.Memory_intf.S) = struct
  module Sys = Recovery.Make (M)
  module Dss = Dss_queue.Make (M)
  module Ms = Dssq_baselines.Ms_queue.Make (M)
  module Durable = Dssq_baselines.Durable_queue.Make (M)
  module Log = Dssq_baselines.Log_queue.Make (M)
  module Gen = Dssq_baselines.Caswe_queue.General (M)
  module Fast = Dssq_baselines.Caswe_queue.Fast (M)

  (* The generic engine applied to the queue specification: the
     flat-combining benchmark subject ("dss-fc").  Same detectable
     interface as the linked DSS queue, but exec goes through the
     engine's boxed-CAS path, where a combiner can fold every announced
     operation into one composite install and one persist epoch
     (DESIGN.md §14).  The linked queue keeps most of its hardening
     drains even under combine (cross-thread helper flushes), so this is
     the implementation that actually amortizes flushes per op. *)
  module Fcq =
    Detectable.Make
      (struct
        type state = int list
        type op = Dssq_spec.Specs.Queue.op
        type response = Dssq_spec.Specs.Queue.response

        let spec = Dssq_spec.Specs.Queue.spec ()
      end)
      (M)

  (* Register [name]'s recover procedure (and audit, if any) with the
     recovery system, when one is attached. *)
  let attach system ~name ?audit recover =
    match system with
    | None -> ()
    | Some s -> ignore (Sys.register s ~name ?audit recover : int)

  (* The closure record of any detectable queue, rooted in [system]
     under [name]. *)
  let detectable (type q)
      (module Q : Queue_intf.DETECTABLE_QUEUE with type t = q) ?system ~name
      ?audit ?(stats = fun () -> []) (q : q) : Queue_intf.ops =
    attach system ~name ?audit (fun () -> Q.recover q);
    {
      name;
      enqueue = Q.enqueue q;
      dequeue = Q.dequeue q;
      d_enqueue =
        (fun ~tid v ->
          Q.prep_enqueue q ~tid v;
          Q.exec_enqueue q ~tid);
      d_dequeue =
        (fun ~tid ->
          Q.prep_dequeue q ~tid;
          Q.exec_dequeue q ~tid);
      recover = (fun () -> Q.recover q);
      resolve = Q.resolve q;
      stats;
    }

  let dss ?system (cfg : Queue_intf.config) =
    let wal = Option.map Sys.wal system in
    let pool_id = Option.map Sys.fresh_pool_id system in
    let q = Dss.of_config ?wal ?pool_id cfg in
    detectable (module Dss) ?system ~name:"dss-queue"
      ~audit:(fun () -> Recovery.audit_of_pool (Dss.audit q))
      ~stats:(fun () ->
        [ ("capacity", cfg.capacity); ("pool_free", Dss.free_count q) ])
      q

  let fc ?system (cfg : Queue_intf.config) : Queue_intf.ops =
    let module Q = Dssq_spec.Specs.Queue in
    let q =
      Fcq.create ~name:"fcq" ~combine:(cfg.policy = Combine)
        ~nthreads:cfg.nthreads ()
    in
    attach system ~name:"dss-fc" (fun () -> Fcq.recover q);
    let of_deq_response = function
      | Q.Value x -> x
      | Q.Empty -> Queue_intf.empty_value
      | Q.Ok -> assert false (* dequeue never answers OK *)
    in
    {
      name = "dss-fc";
      enqueue = (fun ~tid v -> ignore (Fcq.base q ~tid (Q.Enqueue v) : Q.response));
      dequeue = (fun ~tid -> of_deq_response (Fcq.base q ~tid Q.Dequeue));
      d_enqueue =
        (fun ~tid v ->
          Fcq.prep q ~tid (Q.Enqueue v);
          ignore (Fcq.exec q ~tid : Q.response));
      d_dequeue =
        (fun ~tid ->
          Fcq.prep q ~tid Q.Dequeue;
          of_deq_response (Fcq.exec q ~tid));
      recover = (fun () -> Fcq.recover q);
      resolve =
        (fun ~tid ->
          match Fcq.resolve q ~tid with
          | Detectable_intf.Nothing -> Queue_intf.Nothing
          | Detectable_intf.Pending (Q.Enqueue v) -> Queue_intf.Enq_pending v
          | Detectable_intf.Pending Q.Dequeue -> Queue_intf.Deq_pending
          | Detectable_intf.Done (Q.Enqueue v, _) -> Queue_intf.Enq_done v
          | Detectable_intf.Done (Q.Dequeue, r) -> (
              match r with
              | Q.Empty -> Queue_intf.Deq_empty
              | Q.Value x -> Queue_intf.Deq_done x
              | Q.Ok -> assert false));
      stats =
        (fun () ->
          let batches, folded = Fcq.combining_stats q in
          [ ("combine_batches", batches); ("combine_folded", folded) ]);
    }

  let ms ?system (cfg : Queue_intf.config) : Queue_intf.ops =
    let q = Ms.of_config cfg in
    (* Volatile: recovery re-attaches the (empty) root, nothing more. *)
    attach system ~name:"ms-queue" (fun () -> ());
    let enqueue ~tid v = Ms.enqueue q ~tid v in
    let dequeue ~tid = Ms.dequeue q ~tid in
    (* The MS queue has no detectable path; the detectable closures fall
       back to the plain operations (only meaningful in non-detectable
       experiments, as in Figure 5a). *)
    {
      name = "ms-queue";
      enqueue;
      dequeue;
      d_enqueue = enqueue;
      d_dequeue = dequeue;
      (* Volatile: nothing survives a crash, nothing to recover or
         resolve. *)
      recover = (fun () -> ());
      resolve = (fun ~tid:_ -> Queue_intf.Nothing);
      stats = (fun () -> []);
    }

  let durable ?system (cfg : Queue_intf.config) : Queue_intf.ops =
    let q = Durable.of_config cfg in
    attach system ~name:"durable-queue" (fun () -> Durable.recover q);
    let enqueue ~tid v = Durable.enqueue q ~tid v in
    let dequeue ~tid = Durable.dequeue q ~tid in
    {
      name = "durable-queue";
      enqueue;
      dequeue;
      d_enqueue = enqueue;
      d_dequeue = dequeue;
      recover = (fun () -> Durable.recover q);
      (* Durable but not detectable: recovery publishes pending dequeue
         results, but a thread cannot interrogate its own operation. *)
      resolve = (fun ~tid:_ -> Queue_intf.Nothing);
      stats = (fun () -> []);
    }

  let log ?system cfg =
    detectable (module Log) ?system ~name:"log-queue" (Log.of_config cfg)

  let general_caswe ?system cfg =
    detectable (module Gen) ?system ~name:"general-caswe" (Gen.of_config cfg)

  let fast_caswe ?system cfg =
    detectable (module Fast) ?system ~name:"fast-caswe" (Fast.of_config cfg)

  let all =
    [
      ("dss-queue", dss);
      ("dss-fc", fc);
      ("ms-queue", ms);
      ("durable-queue", durable);
      ("log-queue", log);
      ("general-caswe", general_caswe);
      ("fast-caswe", fast_caswe);
    ]

  let known_names = List.map fst all
  let find_opt name = List.assoc_opt name all

  let find name =
    match find_opt name with
    | Some mk -> mk
    | None ->
        invalid_arg
          (Printf.sprintf "unknown queue %S (known: %s)" name
             (String.concat ", " known_names))

  (** Build and seed a queue, optionally rooted in a recovery system —
      the backend-monomorphic variant of the toplevel {!setup} for
      callers that hold a [Sys.t]. *)
  let setup ?system ~mk ~init_nodes (cfg : Queue_intf.config) :
      Queue_intf.ops =
    let ops = (find mk) ?system cfg in
    for i = 1 to init_nodes do
      ops.Queue_intf.enqueue ~tid:(i mod cfg.Queue_intf.nthreads) i
    done;
    ops
end

(** Build and seed a queue for a throughput run, over any backend: look
    [mk] up, construct it with [cfg], and enqueue [init_nodes] values
    round-robin across threads (the Section 4 initialization — round-
    robin because the per-thread node pools are striped).  Shared by the
    sim and native harnesses so the two measure the same starting
    state.  (The recovery system's type depends on the packed backend
    module, so rooted construction goes through {!Make.setup}.) *)
let setup (module M : Dssq_memory.Memory_intf.S) ~mk ~init_nodes
    (cfg : Queue_intf.config) : Queue_intf.ops =
  let module R = Make (M) in
  R.setup ~mk ~init_nodes cfg
