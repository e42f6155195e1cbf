(** Whole-system recovery: one entry point that re-attaches every
    registered object after a crash.

    Before this module, recovery was strictly per-object: each
    structure rebuilt its own free lists from whatever volatile
    references the test harness happened to still hold.  A real
    restart holds nothing volatile, so the system needs three durable
    pieces, all owned here:

    - a checksummed write-ahead log ({!Dssq_pmem.Wal}) that records
      allocation/free intents and registrations before they take
      effect (log-then-link);
    - a persistent root directory ({!Dssq_pmem.Roots}) mapping object
      names to their registration slots, so the recovered process can
      find its objects again;
    - a registration list pairing each named object with its [recover]
      procedure and a post-recovery leak [audit].

    {!Make.reattach} is the crash-to-running path, and does recovery
    work only: replay the WAL (dropping a detectably-torn tail, refusing
    corruption), re-attach the root directory, run every object's
    [recover] in registration order, then audit every pool and fail
    loudly on a leak.  {!Make.fsck} is the strict read-mostly variant
    behind [dssq fsck]: verification errors — including torn tails —
    become reportable errors instead of silent repairs, and it alone
    counts the allocation intents still in flight. *)

module Metrics = Dssq_obs.Metrics

(** Per-object leak audit summary, as reported by {!report}. *)
type audit = { live : int; free : int; leaked : int }

let no_audit = { live = 0; free = 0; leaked = 0 }

let audit_of_pool (a : Node_pool.audit_report) =
  {
    live = a.Node_pool.kept_nodes;
    free = a.Node_pool.free_nodes;
    (* dual-membership is as fatal as a leak: count it as one *)
    leaked = List.length a.Node_pool.leaked + List.length a.Node_pool.dual;
  }

type object_report = { o_name : string; o_audit : audit }

(** What one {!Make.reattach} did. *)
type report = {
  replayed : int;  (** valid WAL records replayed *)
  torn_dropped : int;  (** torn tail records detected and dropped *)
  roots_attached : int;  (** durable root-directory entries found *)
  objects : object_report list;  (** per-object recovery + audit *)
  leaked_total : int;  (** sum of per-object leaks — must be 0 *)
}

(** What {!Make.fsck} found on a clean system: the recovery it ran,
    and the logged alloc intents with no matching free. *)
type fsck_report = { recovery : report; in_flight : int }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>wal: %d records replayed, %d torn dropped@,roots: %d attached@,\
     %a@,leaked nodes: %d@]"
    r.replayed r.torn_dropped r.roots_attached
    (Format.pp_print_list (fun ppf o ->
         Format.fprintf ppf "  %-16s live %d  free %d  leaked %d" o.o_name
           o.o_audit.live o.o_audit.free o.o_audit.leaked))
    r.objects r.leaked_total

let m_leaked = Metrics.counter "leaked_nodes"

module Make (M : Dssq_memory.Memory_intf.S) = struct
  module Wal = Dssq_pmem.Wal.Make (M)
  module Roots = Dssq_pmem.Roots.Make (M)

  type entry = {
    e_name : string;
    e_recover : unit -> unit;
    e_audit : unit -> audit;
  }

  type t = {
    wal : Wal.t;
    roots : Roots.t;
    mutable objects : entry list;  (* reverse registration order *)
    mutable next_pool_id : int;
  }

  let create ?(nthreads = 1) ?(wal_lane_capacity = 256) ?(root_capacity = 16)
      () =
    {
      wal = Wal.create ~lanes:(max 1 nthreads) ~lane_capacity:wal_lane_capacity ();
      roots = Roots.create ~capacity:root_capacity ();
      objects = [];
      next_pool_id = 0;
    }

  let wal t = t.wal
  let roots t = t.roots

  (** Distinct id for each pool sharing this system's log. *)
  let fresh_pool_id t =
    let id = t.next_pool_id in
    t.next_pool_id <- id + 1;
    id

  (** Register a named object: a root-directory entry is made durable
      (with a WAL record logged first — the directory itself follows
      log-then-link), and [recover]/[audit] run on every [reattach],
      in registration order.  Registration happens at setup time, from
      a single thread (lane 0). *)
  let register t ~name ?(audit = fun () -> no_audit) recover =
    Wal.append t.wal ~lane:0 ~kind:Dssq_pmem.Wal.Codec.kind_root
      ~a:(Roots.count t.roots) ~b:0;
    let idx = Roots.register t.roots ~name ~value:(List.length t.objects) in
    t.objects <- { e_name = name; e_recover = recover; e_audit = audit }
                 :: t.objects;
    idx

  let registered t = List.rev_map (fun e -> e.e_name) t.objects

  (* Alloc intents that never saw a matching free: the crash landed
     between the logged intent and the node's retirement.  Recovery
     handles them by construction (the rebuild returns unreachable
     nodes to the free lists), so [reattach] never counts them; [fsck]
     reports the count, so a reader can see crashes really do land
     mid-alloc.  Keyed on (pool, node), not
     on the lane: a free is logged on the freeing thread's lane, which
     need not be the allocating one's.  The table is sized to the log,
     so a short replay allocates a small one. *)
  let count_in_flight records =
    (* The table's key is a logged node's identity, with monomorphic
       equality and hash: the polymorphic ones walk every key
       generically.  Local, so it adds no field to the functor's result. *)
    let module Node = struct
      type t = { pool : int; node : int }

      let equal a b = Int.equal a.node b.node && Int.equal a.pool b.pool

      (* 65599 is odd, so consecutive nodes of one pool hit distinct
         buckets of the power-of-two table. *)
      let hash k = (k.node * 65599) + k.pool
    end in
    let module Table = Hashtbl.Make (Node) in
    let tbl = Table.create (max 8 (List.length records)) in
    let bump r d =
      let key = { Node.pool = r.Dssq_pmem.Wal.r_b; node = r.r_a } in
      let n = Option.value ~default:0 (Table.find_opt tbl key) in
      Table.replace tbl key (n + d)
    in
    List.iter
      (fun r ->
        if r.Dssq_pmem.Wal.r_kind = Dssq_pmem.Wal.Codec.kind_alloc then bump r 1
        else if r.r_kind = Dssq_pmem.Wal.Codec.kind_free then bump r (-1))
      records;
    Table.fold (fun _ n acc -> acc + max 0 n) tbl 0

  (* Recovery proper, from a replay's result: roots, every object's
     recover and audit, then the truncate. *)
  let recover_replayed ~truncate t (records, torn_dropped) =
    let roots_attached = Roots.reattach t.roots in
    let objects =
      List.rev_map
        (fun e ->
          e.e_recover ();
          { o_name = e.e_name; o_audit = e.e_audit () })
        t.objects
    in
    let leaked_total =
      List.fold_left (fun acc o -> acc + o.o_audit.leaked) 0 objects
    in
    for _ = 1 to leaked_total do
      Metrics.incr m_leaked
    done;
    if truncate then Wal.truncate t.wal;
    {
      replayed = List.length records;
      torn_dropped;
      roots_attached;
      objects;
      leaked_total;
    }

  (** The single crash-to-running entry point.  Raises
      [Dssq_pmem.Wal.Corrupted] on a corrupt log and [Failure] on a
      corrupt root directory; a successful return with
      [leaked_total = 0] certifies no node was lost.  When [truncate]
      (default) the WAL is persistently reset afterwards — the rebuilt
      free lists are a checkpoint superseding the old intents — which
      also makes a second crash during normal operation replay only
      post-recovery records. *)
  let reattach ?(truncate = true) t =
    recover_replayed ~truncate t (Wal.replay t.wal)

  (** Validate-and-report, the strict mode behind [dssq fsck]: any WAL
      irregularity (torn tail included), root-directory damage, or
      post-recovery leak is an [Error] instead of a repair.  On a
      clean log this still runs the full recovery (without truncating)
      so the report carries real audit numbers, and counts the
      in-flight intents from that recovery's own replay. *)
  let fsck t =
    match Wal.verify t.wal with
    | Error e -> Error e
    | Ok _ -> (
        match Roots.verify t.roots with
        | Error e -> Error e
        | Ok _ -> (
            match
              let ((records, _) as replayed) = Wal.replay t.wal in
              (recover_replayed ~truncate:false t replayed, records)
            with
            | exception Dssq_pmem.Wal.Corrupted { lane; slot } ->
                Error
                  (Printf.sprintf "wal: lane %d corrupt at slot %d" lane slot)
            | exception Failure e -> Error e
            | r, records ->
                if r.leaked_total > 0 then
                  Error
                    (Printf.sprintf
                       "audit: %d node(s) leaked after recovery"
                       r.leaked_total)
                else
                  Ok { recovery = r; in_flight = count_in_flight records }))
end
