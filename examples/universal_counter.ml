(* Universal construction demo: a detectable counter, D<counter>,
   obtained for free from the sequential specification of a counter —
   the computability argument of Section 2.2 of the paper, live.

   The construction agrees operations into a persistent log (one CAS
   consensus per slot, flush-predecessor-before-append), so recovery is
   trivial: the persisted log is always a prefix of the volatile one and
   resolve is just another logged operation.

   This example also shows the auxiliary-argument remedy from the end of
   Section 2.1: each increment carries a serial number that is recorded
   in A[p] but ignored by the transition function, so that resolve can
   distinguish "the increment I already accounted for" from "a repeat of
   the same operation" — without it, exactly-once retry of {e identical}
   operations is ambiguous.

   Run:  dune exec examples/universal_counter.exe *)

module Heap = Dssq_pmem.Heap
module Sim = Dssq_sim.Sim
module Spec = Dssq_spec.Spec
module Cnt = Dssq_spec.Specs.Counter

(* One world: a heap and the counter on it, set up the same way every
   time.  A crash restarts cold, into a fresh world loaded with the image
   the crash left in persistent memory. *)
let world () =
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let module U = Dssq_universal.Universal.Make (M) in
  (* with_aux: operations become (op, serial); delta ignores serial. *)
  let u = U.create ~nthreads:2 ~capacity:32768 (Spec.with_aux (Cnt.spec ())) in
  Heap.log_persists heap;
  (heap, U.prep u, U.exec u, U.resolve u, U.apply u)

let () =
  let total_increments = 10 in
  let live = ref (world ()) in

  (* Two threads each perform detectable increments; the system keeps
     crashing; on restart each thread resolves and counts or retries.
     The final count must equal the number of intended increments. *)
  let done_count = Array.make 2 0 in
  let crashes = ref 0 in
  let epoch = ref 0 in
  while done_count.(0) + done_count.(1) < 2 * total_increments do
    incr epoch;
    let heap, prep, exec, _, _ = !live in
    let worker ~tid () =
      while done_count.(tid) < total_increments do
        let serial = done_count.(tid) in
        prep ~tid (Cnt.Increment, serial);
        (match exec ~tid (Cnt.Increment, serial) with
        | Some Cnt.Ok -> done_count.(tid) <- done_count.(tid) + 1
        | Some (Cnt.Value _) | None -> ());
        Sim.yield heap
      done
    in
    let outcome =
      Sim.run heap
        ~policy:(Sim.Random_seed !epoch)
        ~crash:(Sim.Crash_prob (0.003, !epoch))
        ~threads:[ worker ~tid:0; worker ~tid:1 ]
    in
    if outcome.Sim.crashed then begin
      incr crashes;
      let ((heap', _, _, resolve, _) as fresh) = world () in
      Sim.restart heap ~into:heap' ~evict_p:0.4 ~seed:!epoch;
      live := fresh;
      (* On restart, each thread resolves its in-flight increment.  The
         serial number disambiguates: only an increment whose serial
         equals the local progress counter is both completed and not yet
         accounted for. *)
      for tid = 0 to 1 do
        match resolve ~tid with
        | Some (Cnt.Increment, serial), Some Cnt.Ok
          when serial = done_count.(tid) ->
            done_count.(tid) <- done_count.(tid) + 1
        | _ -> ()
      done
    end
  done;

  let _, _, _, _, apply = !live in
  (match apply ~tid:0 (Cnt.Get, 0) with
  | Some (Cnt.Value v) ->
      Printf.printf
        "intended %d increments, survived %d crashes, counter reads %d\n"
        (2 * total_increments) !crashes v;
      assert (v = 2 * total_increments)
  | _ -> assert false);
  print_endline
    "exactly-once semantics from D<counter> via the universal construction"
