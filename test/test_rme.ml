(** Tests for the recoverable mutual exclusion lock: mutual exclusion
    under every interleaving, ownership recovery after crashes at every
    step, and a crash-recovery workload where the protected invariant
    survives arbitrary failures. *)

open Helpers

type lk = {
  heap : Heap.t;
  acquire : tid:int -> unit;
  try_acquire : tid:int -> bool;
  release : tid:int -> unit;
  holder : unit -> int option;
  recover : tid:int -> [ `Held | `Not_held ];
}

let make ~nthreads () : lk =
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let module L = Dssq_core.Rme_lock.Make (M) in
  let l = L.create ~nthreads () in
  {
    heap;
    acquire = (fun ~tid -> L.acquire l ~tid);
    try_acquire = (fun ~tid -> L.try_acquire l ~tid);
    release = (fun ~tid -> L.release l ~tid);
    holder = (fun () -> L.holder l);
    recover = (fun ~tid -> L.recover l ~tid);
  }

let test_basic () =
  let l = make ~nthreads:2 () in
  Alcotest.(check (option int)) "free" None (l.holder ());
  l.acquire ~tid:0;
  Alcotest.(check (option int)) "held by 0" (Some 0) (l.holder ());
  Alcotest.(check bool) "contended try fails" false (l.try_acquire ~tid:1);
  l.release ~tid:0;
  Alcotest.(check bool) "free again" true (l.try_acquire ~tid:1);
  l.release ~tid:1

let test_release_requires_ownership () =
  let l = make ~nthreads:2 () in
  l.acquire ~tid:0;
  Alcotest.check_raises "non-owner release rejected"
    (Invalid_argument "Rme_lock.release: caller does not hold the lock")
    (fun () -> l.release ~tid:1)

let test_mutual_exclusion_exhaustive () =
  (* Two threads, one lock, a non-atomic critical section: every
     preemption-bounded interleaving must keep the CS exclusive. *)
  ignore
    (Explore.run
       (Explore.make ~max_preemptions:2
          ~setup:(fun () ->
            let heap = Heap.create () in
            let (module M) = Sim.memory heap in
            let module L = Dssq_core.Rme_lock.Make (M) in
            let l = L.create ~nthreads:2 () in
            let in_cs = ref (-1) in
            let violations = ref 0 in
            let worker ~tid () =
              if L.try_acquire l ~tid then begin
                if !in_cs <> -1 then incr violations;
                in_cs := tid;
                (* some memory traffic inside the CS *)
                ignore (L.holder l);
                in_cs := -1;
                L.release l ~tid
              end
            in
            {
              Explore.history = Explore.no_history;
              ctx = violations;
              heap;
              threads = [ worker ~tid:0; worker ~tid:1 ];
            })
          ~check:(fun violations _ ~crashed:_ ->
            Alcotest.(check int) "mutual exclusion" 0 !violations)
          ()));
  ()

let test_crash_recovery_ownership () =
  (* Crash at every step of acquire-CS-release: recover reports Held
     exactly when the lock word says so, and releasing un-wedges the
     lock for everyone else. *)
  let finished = ref false in
  let step = ref 0 in
  while not !finished do
    let l = make ~nthreads:2 () in
    let t () =
      l.acquire ~tid:0;
      l.release ~tid:0
    in
    let outcome = Sim.run l.heap ~crash:(Sim.Crash_at_step !step) ~threads:[ t ] in
    if not outcome.Sim.crashed then finished := true
    else begin
      Sim.apply_crash l.heap ~evict_p:0.5 ~seed:(900_000 + !step);
      (match l.recover ~tid:0 with
      | `Held ->
          Alcotest.(check (option int)) "word agrees" (Some 0) (l.holder ());
          l.release ~tid:0
      | `Not_held ->
          Alcotest.(check bool) "word agrees" true (l.holder () <> Some 0));
      (* No deadlock: someone else can take the lock now. *)
      Alcotest.(check bool)
        (Printf.sprintf "lock available after recovery (step %d)" !step)
        true
        (l.try_acquire ~tid:1);
      l.release ~tid:1
    end;
    incr step
  done

let test_protected_invariant_across_crashes () =
  (* The classic RME workload: a lock-protected non-atomic counter
     (read; +1; write; flush).  Crashes strike at random; the crashed
     holder recovers, repairs the counter idempotently and releases.
     The invariant: the counter equals the number of completed
     increments, and never tears. *)
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let module L = Dssq_core.Rme_lock.Make (M) in
  let l = L.create ~nthreads:2 () in
  let counter = M.alloc ~name:(fun () -> "protected") 0 in
  let completed = Array.make 2 0 in
  let intent = Array.make 2 (-1) in
  (* target value each thread is installing; volatile *)
  let total_target = 20 in
  let crashes = ref 0 in
  let epoch = ref 0 in
  while completed.(0) + completed.(1) < total_target do
    incr epoch;
    let worker ~tid () =
      while completed.(0) + completed.(1) < total_target do
        L.acquire l ~tid;
        let v = M.read counter in
        intent.(tid) <- v + 1;
        M.write counter (v + 1);
        M.flush counter;
        completed.(tid) <- completed.(tid) + 1;
        intent.(tid) <- -1;
        L.release l ~tid;
        Sim.yield heap
      done
    in
    let outcome =
      Sim.run heap
        ~policy:(Sim.Random_seed !epoch)
        ~crash:(Sim.Crash_prob (0.01, !epoch))
        ~threads:[ worker ~tid:0; worker ~tid:1 ]
    in
    if outcome.Sim.crashed then begin
      incr crashes;
      Sim.apply_crash heap ~evict_p:0.5 ~seed:!epoch;
      for tid = 0 to 1 do
        match L.recover l ~tid with
        | `Held ->
            (* Recovery section: finish the interrupted increment
               idempotently, then release. *)
            (if intent.(tid) <> -1 then begin
               if M.read counter < intent.(tid) then begin
                 M.write counter intent.(tid);
                 M.flush counter
               end;
               completed.(tid) <- completed.(tid) + 1;
               intent.(tid) <- -1
             end);
            L.release l ~tid
        | `Not_held -> intent.(tid) <- -1
      done
    end
  done;
  Alcotest.(check int) "counter = completed increments"
    (completed.(0) + completed.(1))
    (M.read counter);
  Alcotest.(check bool) "survived some crashes" true (!crashes >= 0)

let suite =
  [
    Alcotest.test_case "acquire/release basics" `Quick test_basic;
    Alcotest.test_case "release requires ownership" `Quick
      test_release_requires_ownership;
    Alcotest.test_case "mutual exclusion (exhaustive)" `Quick
      test_mutual_exclusion_exhaustive;
    Alcotest.test_case "crash sweep: ownership recovery" `Quick
      test_crash_recovery_ownership;
    Alcotest.test_case "protected invariant across crashes" `Quick
      test_protected_invariant_across_crashes;
  ]
