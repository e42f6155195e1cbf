(** The detectable-object zoo: one uniform, deterministic accounting
    workload over {e every} detectable object in [lib/core], measuring
    [persistent_words_per_op] — persistent-word mutations (stores plus
    successful CAS, the simulator's [pwrites] counter) divided by
    completed detectable operations.

    This is the empirical side of the space story in Ben-Baruch, Hendler
    & Rusanovsky (PAPERS.md): detectability costs announce state (at
    least one persistent announce word per process, [Omega(n)] in
    total), and every operation must persist at least its own announce
    record and one state mutation.  The zoo reports how far each object
    sits from that floor — the flat engine-backed objects pay the same
    protocol cost regardless of their specification, the linked
    structures pay extra words for the pointer swing, and the composed
    hash map multiplies announce space by its bucket count.

    Everything runs on the counted simulator backend with two threads
    and a fixed schedule, so rows are reproducible and comparable across
    commits; [to_report] packages them as a {!Dssq_obs.Run_report.t}
    for archiving (the words-per-op CI artifact).

    [profile_one] runs the same workloads with the attribution table
    ({!Dssq_obs.Attrib}) attached, producing the per-phase and per-line
    tables behind [dssq profile]. *)

open Dssq_pmem
open Dssq_sim
module MI = Dssq_memory.Memory_intf
module DI = Dssq_core.Detectable_intf
module Attrib = Dssq_obs.Attrib

type row = {
  z_object : string;
  z_ops : int;  (** completed detectable operations *)
  z_events : MI.counters;  (** memory-event delta over the measured ops *)
  z_stats : DI.stats;  (** static persistent footprint of the instance *)
}

let words_per_op r =
  float_of_int r.z_events.MI.pwrites /. float_of_int (max 1 r.z_ops)

let flushes_per_op r =
  float_of_int r.z_events.MI.flushes /. float_of_int (max 1 r.z_ops)

(* ------------------------- per-object workloads ------------------------ *)

(* Every workload: [pairs] iterations per thread, two detectable
   operations per iteration (a mutator and its inverse or a read), all
   through the object's adapter prep/exec pair so the announce protocol
   is on the measured path (the hash map's adapter runs its fused
   detectable call as exec).  Counters are reset after construction;
   [ops] counts completed detectable operations. *)

let nthreads = 2

(* A zoo row: the object's constructor over a backend — its [D<T>]
   adapter, static footprint and object-wide recovery — and the two
   operations thread [tid] runs in iteration [i]. *)
type entry =
  | Entry : {
      name : string;
      make :
        (module MI.S) ->
        combine:bool ->
        pairs:int ->
        ('op, 'r) DI.adapter * (unit -> DI.stats) * (unit -> unit);
      ops : pairs:int -> tid:int -> int -> 'op * 'op;
    }
      -> entry

let entry name make ops = Entry { name; make; ops }
let counted tid i = (tid * 1_000_000) + i
let capacity ~pairs = 16 + (nthreads * (pairs + 8))

let queue (module M : MI.S) ~combine ~pairs =
  let module Q = Dssq_core.Dss_queue.Make (M) in
  let q = Q.create ~combine ~nthreads ~capacity:(capacity ~pairs) () in
  ( Dssq_core.Queue_intf.adapter (module Q) q,
    (fun () -> Q.stats q),
    fun () -> Q.recover q )

let stack (module M : MI.S) ~combine ~pairs =
  let module S = Dssq_core.Dss_stack.Make (M) in
  let s = S.create ~combine ~nthreads ~capacity:(capacity ~pairs) () in
  ( Dssq_core.Queue_intf.stack_adapter (module S) s,
    (fun () -> S.stats s),
    fun () -> S.recover s )

(* Register and hash map have no combining mode. *)
let register (module M : MI.S) ~combine:_ ~pairs:_ =
  let module R = Dssq_core.Dss_register.Make (M) in
  let r = R.create ~nthreads () in
  ( Dssq_core.Dss_register.adapter (module R) r,
    (fun () -> R.stats r),
    fun () -> R.recover r )

let hashmap (module M : MI.S) ~combine:_ ~pairs:_ =
  let module H = Dssq_core.Dss_hashmap.Make (M) in
  let h = H.create ~nthreads ~nbuckets:64 () in
  ( Dssq_core.Dss_hashmap.adapter (module H) h,
    (fun () -> H.stats h),
    fun () -> H.recover h )

(* The engine objects: [make] applies the object's functor. *)
let engine (type op r)
    (make :
      (module MI.S) ->
      (module DI.GENERIC with type op = op and type response = r)) mem
    ~combine ~pairs:_ =
  let (module O) = make mem in
  let o = O.create ~combine ~nthreads () in
  (DI.generic (module O) o, (fun () -> O.stats o), fun () -> O.recover o)

let table =
  let open Dssq_spec.Specs in
  [
    entry "dss-queue" queue (fun ~pairs:_ ~tid i ->
        (Queue.Enqueue (counted tid i), Dequeue));
    entry "dss-stack" stack (fun ~pairs:_ ~tid i ->
        (Stack.Push (counted tid i), Pop));
    entry "dss-register" register (fun ~pairs:_ ~tid i ->
        (Register.Write (counted tid i), Read));
    (* Disjoint key ranges per thread; keys must be >= 1. *)
    entry "dss-hashmap" hashmap (fun ~pairs:_ ~tid i ->
        let k = (tid * 4096) + (i mod 1024) + 1 in
        (Map.Put (k, i), Remove k));
    entry "dss-swap"
      (engine (fun (module M) -> (module Dssq_core.Dss_swap.Make (M))))
      (fun ~pairs ~tid i ->
        (Swap.Swap (counted tid i), Swap (counted tid (i + pairs))));
    (* Thread 0 works the front, thread 1 the back, so both ends of the
       specification are on the measured path. *)
    entry "dss-deque"
      (engine (fun (module M) -> (module Dssq_core.Dss_deque.Make (M))))
      (fun ~pairs:_ ~tid i ->
        if tid = 0 then (Deque.Push_front (counted tid i), Pop_back)
        else (Push_back (counted tid i), Pop_front));
    (* Interleaved priorities so extract-min alternates winners. *)
    entry "dss-pqueue"
      (engine (fun (module M) -> (module Dssq_core.Dss_pqueue.Make (M))))
      (fun ~pairs:_ ~tid i ->
        (Pqueue.Insert ((i * nthreads) + tid), Extract_min));
    entry "dss-bcounter"
      (engine (fun (module M) -> (module Dssq_core.Dss_bcounter.Make (M))))
      (fun ~pairs:_ ~tid:_ _ -> (Bcounter.Increment, Decrement));
  ]

let objects = List.map (fun (Entry e) -> e.name) table

(* Every accounting run: build [name] over each counted backend of
   [mems] — the live one first, then, for a crash, the fresh world it
   restarts into — zero the counters, and account the window in which
   [drive] runs the workers on the first and, given the post-crash path
   (object-wide recovery plus one resolve per thread, on the last),
   whatever follows them. *)
let row mems ~policy ~pairs name drive =
  match List.find_opt (fun (Entry e) -> e.name = name) table with
  | None ->
      invalid_arg
        (Printf.sprintf "Zoo: unknown object %s (known: %s)" name
           (String.concat ", " objects))
  | Some (Entry e) ->
      let built =
        List.map
          (fun (module C : MI.COUNTED) ->
            e.make (module C) ~combine:(policy = MI.Policy.Combine) ~pairs)
          mems
      in
      let a, _, _ = List.hd built in
      let a', stats, recover = List.nth built (List.length built - 1) in
      let detectable ~tid op =
        a.prep ~tid op;
        ignore (a.exec ~tid op)
      in
      let worker tid () =
        for i = 1 to pairs do
          let x, y = e.ops ~pairs ~tid i in
          detectable ~tid x;
          detectable ~tid y
        done
      in
      List.iter (fun (module C : MI.COUNTED) -> C.reset_counters ()) mems;
      drive [ worker 0; worker 1 ] (fun () ->
          recover ();
          for tid = 0 to nthreads - 1 do
            ignore (a'.resolve ~tid)
          done);
      {
        z_object = name;
        (* two detectable ops per iteration per thread, by construction *)
        z_ops = 2 * pairs * nthreads;
        z_events =
          List.fold_left
            (fun acc (module C : MI.COUNTED) -> MI.Counters.add acc (C.counters ()))
            MI.Counters.zero mems;
        z_stats = stats ();
      }

let run_one ?(pairs = 200) ?(line_size = 1) ?(policy = MI.Policy.Eager) name =
  let heap = Heap.create ~line_size ~policy () in
  row [ Sim.counted_memory heap ] ~policy ~pairs name (fun threads _ ->
      ignore (Sim.run heap ~threads))

let run_all ?pairs ?line_size ?policy () =
  List.map (fun name -> run_one ?pairs ?line_size ?policy name) objects

(* ---------------------- flat-combining amortization -------------------- *)

(* The Ben-Baruch, Hendler & Rusanovsky floor is per {e operation}: one
   persistent announce word per process, and every detectable mutation
   persists at least its announce record and one state word (>= 2
   persisted words/op).  Flat combining cannot beat that floor on
   persisted WORDS — every folded operation's announce record still
   turns over — but it amortizes the persist {e epochs}: one flush+drain
   covers a whole batch, so flushes/op falls toward O(1/batch) while
   words/op stays put.  This sweep shows both side by side, per driver
   batch size, on the engine-backed queue (the [dss-fc] benchmark
   subject). *)
type fc_row = {
  f_batch : int;  (** driver epoch size, operation pairs *)
  f_ops : int;
  f_words : float;  (** persisted words per op — floor-bound, flat *)
  f_flushes : float;  (** flushes per op — the amortized axis *)
  f_fences : float;
}

let combine_rows ?(batches = [ 1; 2; 4; 8 ]) ?(nthreads = 8) () =
  List.map
    (fun b ->
      let s =
        Sim_throughput.measure ~seed:1 ~mk:"dss-fc" ~det_pct:100
          ~policy:Combine ~batch:b ~nthreads ()
      in
      let ops = max 1 s.Dssq_obs.Run_report.ops in
      let per c = float_of_int c /. float_of_int ops in
      {
        f_batch = b;
        f_ops = ops;
        f_words = per s.Dssq_obs.Run_report.events.MI.pwrites;
        f_flushes = per s.Dssq_obs.Run_report.events.MI.flushes;
        f_fences = per s.Dssq_obs.Run_report.events.MI.fences;
      })
    batches

(* ------------------------- attributed profiling ------------------------ *)

type profile = { p_row : row; p_attrib : Attrib.t }

(* The table is started before construction so allocation-site labels
   are captured, and always detached afterwards. *)
let with_attribution body =
  Attrib.start ();
  Fun.protect ~finally:Attrib.stop body

let attributed p_row = { p_row; p_attrib = Attrib.snapshot () }

let profile_one ?(pairs = 200) ?(line_size = 1) ?(policy = MI.Policy.Eager)
    ?(crash = false) name =
  with_attribution (fun () ->
      let heap = Heap.create ~line_size ~policy () in
      let fresh = Heap.create ~line_size ~policy () in
      let mems =
        Sim.counted_memory heap
        :: (if crash then [ Sim.counted_memory fresh ] else [])
      in
      attributed
        (row mems ~policy ~pairs name (fun threads recover ->
             Heap.log_persists heap;
             (* Counts, not labels, are zeroed at the same instant as
                the backend counters: that keeps every projection's sum
                equal to the counter deltas. *)
             Attrib.reset ();
             ignore (Sim.run heap ~threads);
             if crash then begin
               Sim.restart heap ~into:fresh ~evict_p:0.5 ~seed:17;
               recover ()
             end)))

let profile_one_native ?(pairs = 200) ?(line_size = 1)
    ?(policy = MI.Policy.Eager) name =
  let module Native = Dssq_memory.Native in
  let module PE = Dssq_memory.Persist_event in
  with_attribution (fun () ->
      Native.set_line_size line_size;
      let module C =
        Native.Make
          (struct
            let policy = policy
          end)
          ()
      in
      attributed
        (row [ (module C) ] ~policy ~pairs name (fun threads recover ->
             Attrib.reset ();
             (* Workers run sequentially in this domain — attribution
                wants a deterministic event stream, not a wall-clock
                benchmark; the per-worker tid keeps the table's
                thread phases honest. *)
             List.iteri
               (fun tid th ->
                 PE.pin_tid tid;
                 th ())
               threads;
             PE.pin_tid (-1);
             C.drain ();
             recover ())))

(* ------------------------------ reporting ------------------------------ *)

let to_report ?(pairs = 200) ?(line_size = 1) (rows : row list) :
    Dssq_obs.Run_report.t =
  let series =
    List.map
      (fun r ->
        {
          Dssq_obs.Run_report.label = r.z_object;
          points =
            [
              {
                Dssq_obs.Run_report.x = nthreads;
                samples = [ words_per_op r ];
                ops = r.z_ops;
                events = r.z_events;
                latency = None;
              };
            ];
        })
      rows
  in
  let metrics =
    List.concat_map
      (fun r ->
        List.map
          (fun (k, v) -> (Printf.sprintf "zoo.%s.%s" r.z_object k, v))
          (DI.stats_to_assoc r.z_stats))
      rows
  in
  Dssq_obs.Run_report.make
    ~params:
      [
        ("pairs", string_of_int pairs);
        ("line_size", string_of_int line_size);
        ("nthreads", string_of_int nthreads);
      ]
    ~provenance:
      [
        ("line_size", string_of_int line_size);
        ("policy", MI.Policy.to_string Eager);
        ("threads", string_of_int nthreads);
      ]
    ~metrics ~backend:"sim" ~experiment:"zoo" ~x_label:"threads"
    ~y_label:"persistent words per op" series
