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

    [profile_one]/[profile_all] run the same workloads with the
    persistence heatmap and phase profiler attached, producing the
    attribution tables behind [dssq profile]. *)

open Dssq_pmem
open Dssq_sim
module MI = Dssq_memory.Memory_intf
module DI = Dssq_core.Detectable_intf
module Heatmap = Dssq_obs.Heatmap
module Profile = Dssq_obs.Profile

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
   through the prep/exec pair so the announce protocol is on the
   measured path.  Counters are reset after construction and prefill;
   [ops] counts completed detectable operations. *)

let nthreads = 2

let objects =
  [
    "dss-queue"; "dss-stack"; "dss-register"; "dss-hashmap"; "dss-swap";
    "dss-deque"; "dss-pqueue"; "dss-bcounter";
  ]

type runner = {
  r_threads : (unit -> unit) list;
  r_stats : unit -> DI.stats;
  r_recover : unit -> unit;
      (* object-wide recovery plus one resolve per thread — the
         post-crash path the profiler attributes to the recovery phases *)
}

let make_runner (module M : Dssq_memory.Memory_intf.S) ~policy ~pairs name :
    runner =
  let combine = policy = MI.Policy.Combine in
  let counted tid i = (tid * 1_000_000) + i in
  match name with
  | "dss-queue" ->
      let module Q = Dssq_core.Dss_queue.Make (M) in
      let q =
        Q.create ~combine ~nthreads ~capacity:(16 + (nthreads * (pairs + 8))) ()
      in
      let worker tid () =
        for i = 1 to pairs do
          Q.prep_enqueue q ~tid (counted tid i);
          Q.exec_enqueue q ~tid;
          Q.prep_dequeue q ~tid;
          ignore (Q.exec_dequeue q ~tid)
        done
      in
      {
        r_threads = [ worker 0; worker 1 ];
        r_stats = (fun () -> Q.stats q);
        r_recover =
          (fun () ->
            Q.recover q;
            for tid = 0 to nthreads - 1 do
              ignore (Q.resolve q ~tid)
            done);
      }
  | "dss-stack" ->
      let module S = Dssq_core.Dss_stack.Make (M) in
      let s =
        S.create ~combine ~nthreads ~capacity:(16 + (nthreads * (pairs + 8))) ()
      in
      let worker tid () =
        for i = 1 to pairs do
          S.prep_push s ~tid (counted tid i);
          S.exec_push s ~tid;
          S.prep_pop s ~tid;
          ignore (S.exec_pop s ~tid)
        done
      in
      {
        r_threads = [ worker 0; worker 1 ];
        r_stats = (fun () -> S.stats s);
        r_recover =
          (fun () ->
            S.recover s;
            for tid = 0 to nthreads - 1 do
              ignore (S.resolve s ~tid)
            done);
      }
  | "dss-register" ->
      let module R = Dssq_core.Dss_register.Make (M) in
      let r = R.create ~nthreads () in
      let worker tid () =
        for i = 1 to pairs do
          R.prep_write r ~tid (counted tid i);
          R.exec_write r ~tid;
          R.prep_read r ~tid;
          ignore (R.exec_read r ~tid)
        done
      in
      {
        r_threads = [ worker 0; worker 1 ];
        r_stats = (fun () -> R.stats r);
        r_recover =
          (fun () ->
            R.recover r;
            for tid = 0 to nthreads - 1 do
              ignore (R.resolve r ~tid)
            done);
      }
  | "dss-hashmap" ->
      let module H = Dssq_core.Dss_hashmap.Make (M) in
      let h = H.create ~nthreads ~nbuckets:64 () in
      let worker tid () =
        for i = 1 to pairs do
          (* Disjoint key ranges per thread; keys must be >= 1. *)
          let k = (tid * 4096) + (i mod 1024) + 1 in
          H.put h ~tid k i;
          H.remove h ~tid k
        done
      in
      {
        r_threads = [ worker 0; worker 1 ];
        r_stats = (fun () -> H.stats h);
        r_recover =
          (fun () ->
            H.recover h;
            for tid = 0 to nthreads - 1 do
              ignore (H.resolve h ~tid)
            done);
      }
  | "dss-swap" ->
      let module W = Dssq_core.Dss_swap.Make (M) in
      let w = W.create ~combine ~nthreads () in
      let worker tid () =
        for i = 1 to pairs do
          W.prep_swap w ~tid (counted tid i);
          ignore (W.exec_swap w ~tid);
          W.prep_swap w ~tid (counted tid (i + pairs));
          ignore (W.exec_swap w ~tid)
        done
      in
      {
        r_threads = [ worker 0; worker 1 ];
        r_stats = (fun () -> W.stats w);
        r_recover =
          (fun () ->
            W.recover w;
            for tid = 0 to nthreads - 1 do
              ignore (W.resolve w ~tid)
            done);
      }
  | "dss-deque" ->
      let module D = Dssq_core.Dss_deque.Make (M) in
      let d = D.create ~combine ~nthreads () in
      (* Thread 0 works the front, thread 1 the back, so both ends of
         the specification are on the measured path. *)
      let worker tid () =
        for i = 1 to pairs do
          if tid = 0 then D.prep_push_front d ~tid (counted tid i)
          else D.prep_push_back d ~tid (counted tid i);
          ignore (D.exec d ~tid);
          if tid = 0 then D.prep_pop_back d ~tid else D.prep_pop_front d ~tid;
          ignore (D.exec d ~tid)
        done
      in
      {
        r_threads = [ worker 0; worker 1 ];
        r_stats = (fun () -> D.stats d);
        r_recover =
          (fun () ->
            D.recover d;
            for tid = 0 to nthreads - 1 do
              ignore (D.resolve d ~tid)
            done);
      }
  | "dss-pqueue" ->
      let module P = Dssq_core.Dss_pqueue.Make (M) in
      let p = P.create ~combine ~nthreads () in
      let worker tid () =
        for i = 1 to pairs do
          (* Interleaved priorities so extract-min alternates winners. *)
          P.prep_insert p ~tid ((i * nthreads) + tid);
          ignore (P.exec p ~tid);
          P.prep_extract_min p ~tid;
          ignore (P.exec p ~tid)
        done
      in
      {
        r_threads = [ worker 0; worker 1 ];
        r_stats = (fun () -> P.stats p);
        r_recover =
          (fun () ->
            P.recover p;
            for tid = 0 to nthreads - 1 do
              ignore (P.resolve p ~tid)
            done);
      }
  | "dss-bcounter" ->
      let module B = Dssq_core.Dss_bcounter.Make (M) in
      let b = B.create ~combine ~nthreads () in
      let worker tid () =
        for _ = 1 to pairs do
          B.prep_incr b ~tid;
          ignore (B.exec b ~tid);
          B.prep_decr b ~tid;
          ignore (B.exec b ~tid)
        done
      in
      {
        r_threads = [ worker 0; worker 1 ];
        r_stats = (fun () -> B.stats b);
        r_recover =
          (fun () ->
            B.recover b;
            for tid = 0 to nthreads - 1 do
              ignore (B.resolve b ~tid)
            done);
      }
  | other ->
      invalid_arg
        (Printf.sprintf "Zoo: unknown object %s (known: %s)" other
           (String.concat ", " objects))

let run_one ?(pairs = 200) ?(line_size = 1) ?(policy = MI.Policy.Eager) name =
  let heap = Heap.create ~line_size ~policy () in
  let (module M) = Sim.counted_memory heap in
  let r = make_runner (module M) ~policy ~pairs name in
  M.reset_counters ();
  ignore (Sim.run heap ~threads:r.r_threads);
  {
    z_object = name;
    (* two detectable ops per iteration per thread, by construction *)
    z_ops = 2 * pairs * nthreads;
    z_events = M.counters ();
    z_stats = r.r_stats ();
  }

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

type profile = {
  p_row : row;
  p_phases : Profile.phase_row list;
  p_heat : Heatmap.row list;
}

(* Shared shell: enable both aggregators around [body], always detach.
   The aggregators are started before construction so allocation-site
   labels are captured, then the counts (not the labels) are zeroed at
   the same instant as the backend counters — which is what keeps the
   per-phase and per-line sums equal to the counter deltas. *)
let with_attribution body =
  Heatmap.reset ();
  Profile.reset ();
  Heatmap.start ();
  Profile.start ();
  Fun.protect
    ~finally:(fun () ->
      Heatmap.stop ();
      Profile.stop ())
    body

let profile_one ?(pairs = 200) ?(line_size = 1) ?(policy = MI.Policy.Eager)
    ?(crash = false) name =
  with_attribution (fun () ->
      let heap = Heap.create ~line_size ~policy () in
      let (module M) = Sim.counted_memory heap in
      let r = make_runner (module M) ~policy ~pairs name in
      M.reset_counters ();
      Heatmap.reset_counts ();
      Profile.reset ();
      ignore (Sim.run heap ~threads:r.r_threads);
      if crash then begin
        Heap.crash_random heap ~evict_p:0.5
          ~rng:(Random.State.make [| 0xF00D; 17 |]);
        r.r_recover ()
      end;
      {
        p_row =
          {
            z_object = name;
            z_ops = 2 * pairs * nthreads;
            z_events = M.counters ();
            z_stats = r.r_stats ();
          };
        p_phases = Profile.rows ();
        p_heat = Heatmap.rows ();
      })

let profile_one_native ?(pairs = 200) ?(line_size = 1)
    ?(policy = MI.Policy.Eager) name =
  let module Native = Dssq_memory.Native in
  let module PE = Dssq_memory.Persist_event in
  with_attribution (fun () ->
      Native.set_line_size line_size;
      let measure (module C : MI.COUNTED) =
        let r = make_runner (module C) ~policy ~pairs name in
        C.reset_counters ();
        Heatmap.reset_counts ();
        Profile.reset ();
        (* Workers run sequentially in this domain — attribution wants a
           deterministic event stream, not a wall-clock benchmark; the
           per-worker tid keeps the profiler's thread slots honest. *)
        List.iteri
          (fun tid th ->
            PE.pin_tid tid;
            th ())
          r.r_threads;
        PE.pin_tid (-1);
        C.drain ();
        r.r_recover ();
        {
          p_row =
            {
              z_object = name;
              z_ops = 2 * pairs * nthreads;
              z_events = C.counters ();
              z_stats = r.r_stats ();
            };
          p_phases = Profile.rows ();
          p_heat = Heatmap.rows ();
        }
      in
      measure
        (module Native.Make
                  (struct
                    let policy = policy
                  end)
                  ()))

let profile_all ?pairs ?line_size ?policy ?crash () =
  List.map
    (fun name -> profile_one ?pairs ?line_size ?policy ?crash name)
    objects

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
