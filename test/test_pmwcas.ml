(** Tests for the persistent multi-word CAS: atomicity, helping,
    failure, the private-word fast path, crash recovery at every step,
    and concurrent exploration. *)

open Helpers

type pm = {
  heap : Heap.t;
  alloc : int -> int;
  read : tid:int -> int -> int;
  pmwcas : tid:int -> (int * int * int * [ `Shared | `Private ]) list -> bool;
  cas1 : tid:int -> int -> expected:int -> desired:int -> bool;
  recover : unit -> unit;
}

let make ?(nthreads = 2) ?(nwords = 16) () : pm =
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let module P = Dssq_pmwcas.Pmwcas.Make (M) in
  let p = P.create ~nwords ~nthreads () in
  {
    heap;
    alloc = (fun v -> P.alloc p v);
    read = (fun ~tid a -> P.read p ~tid a);
    pmwcas = (fun ~tid entries -> P.pmwcas p ~tid entries);
    cas1 = (fun ~tid a ~expected ~desired -> P.cas1 p ~tid a ~expected ~desired);
    recover = (fun () -> P.recover p);
  }

let test_single_word_success () =
  let p = make () in
  let a = p.alloc 1 in
  Alcotest.(check bool) "succeeds" true (p.pmwcas ~tid:0 [ (a, 1, 2, `Shared) ]);
  Alcotest.(check int) "updated" 2 (p.read ~tid:0 a)

let test_single_word_failure () =
  let p = make () in
  let a = p.alloc 1 in
  Alcotest.(check bool) "fails on mismatch" false
    (p.pmwcas ~tid:0 [ (a, 9, 2, `Shared) ]);
  Alcotest.(check int) "unchanged" 1 (p.read ~tid:0 a)

let test_multi_word_all_or_nothing () =
  let p = make () in
  let a = p.alloc 1 and b = p.alloc 2 and c = p.alloc 3 in
  Alcotest.(check bool) "3-word success" true
    (p.pmwcas ~tid:0 [ (a, 1, 10, `Shared); (b, 2, 20, `Shared); (c, 3, 30, `Shared) ]);
  Alcotest.(check int) "a" 10 (p.read ~tid:0 a);
  Alcotest.(check int) "b" 20 (p.read ~tid:0 b);
  Alcotest.(check int) "c" 30 (p.read ~tid:0 c);
  (* One stale expectation poisons the whole operation. *)
  Alcotest.(check bool) "partial mismatch fails" false
    (p.pmwcas ~tid:0 [ (a, 10, 11, `Shared); (b, 99, 21, `Shared) ]);
  Alcotest.(check int) "a untouched" 10 (p.read ~tid:0 a);
  Alcotest.(check int) "b untouched" 20 (p.read ~tid:0 b)

let test_private_word () =
  let p = make () in
  let shared = p.alloc 1 and priv = p.alloc 5 in
  Alcotest.(check bool) "success with private word" true
    (p.pmwcas ~tid:0 [ (shared, 1, 2, `Shared); (priv, 5, 6, `Private) ]);
  Alcotest.(check int) "shared updated" 2 (p.read ~tid:0 shared);
  Alcotest.(check int) "private updated" 6 (p.read ~tid:0 priv);
  (* On failure (shared mismatch) the private word must stay put. *)
  Alcotest.(check bool) "failure" false
    (p.pmwcas ~tid:0 [ (shared, 99, 3, `Shared); (priv, 6, 7, `Private) ]);
  Alcotest.(check int) "private untouched on failure" 6 (p.read ~tid:0 priv)

let test_cas1 () =
  let p = make () in
  let a = p.alloc 1 in
  Alcotest.(check bool) "cas1 hit" true (p.cas1 ~tid:0 a ~expected:1 ~desired:2);
  Alcotest.(check bool) "cas1 miss" false (p.cas1 ~tid:0 a ~expected:1 ~desired:3);
  Alcotest.(check int) "value" 2 (p.read ~tid:0 a)

let test_descriptor_reuse_many_ops () =
  let p = make ~nthreads:1 () in
  let a = p.alloc 0 in
  for i = 0 to 499 do
    Alcotest.(check bool) "op succeeds" true
      (p.pmwcas ~tid:0 [ (a, i, i + 1, `Shared) ])
  done;
  Alcotest.(check int) "final value" 500 (p.read ~tid:0 a)

let test_concurrent_disjoint () =
  (* Two pmwcas on disjoint word sets, random schedules: both always
     succeed. *)
  for seed = 1 to 20 do
    let p = make () in
    let a = p.alloc 1 and b = p.alloc 2 and c = p.alloc 3 and d = p.alloc 4 in
    let ok = Array.make 2 false in
    let t0 () = ok.(0) <- p.pmwcas ~tid:0 [ (a, 1, 10, `Shared); (b, 2, 20, `Shared) ] in
    let t1 () = ok.(1) <- p.pmwcas ~tid:1 [ (c, 3, 30, `Shared); (d, 4, 40, `Shared) ] in
    let outcome = Sim.run p.heap ~policy:(Sim.Random_seed seed) ~threads:[ t0; t1 ] in
    Sim.check_thread_errors outcome;
    Alcotest.(check bool) "t0 ok" true ok.(0);
    Alcotest.(check bool) "t1 ok" true ok.(1);
    Alcotest.(check int) "a" 10 (p.read ~tid:0 a);
    Alcotest.(check int) "d" 40 (p.read ~tid:0 d)
  done

let test_concurrent_conflicting () =
  (* Two pmwcas over the same two words with the same expectations:
     exactly one must win, and the final state must be the winner's. *)
  for seed = 1 to 40 do
    let p = make () in
    let a = p.alloc 0 and b = p.alloc 0 in
    let ok = Array.make 2 false in
    let t0 () = ok.(0) <- p.pmwcas ~tid:0 [ (a, 0, 1, `Shared); (b, 0, 1, `Shared) ] in
    let t1 () = ok.(1) <- p.pmwcas ~tid:1 [ (a, 0, 2, `Shared); (b, 0, 2, `Shared) ] in
    let outcome = Sim.run p.heap ~policy:(Sim.Random_seed seed) ~threads:[ t0; t1 ] in
    Sim.check_thread_errors outcome;
    Alcotest.(check bool) "exactly one winner" true (ok.(0) <> ok.(1));
    let winner = if ok.(0) then 1 else 2 in
    Alcotest.(check int) "a consistent" winner (p.read ~tid:0 a);
    Alcotest.(check int) "b consistent" winner (p.read ~tid:0 b)
  done

let test_concurrent_opposite_order () =
  (* Same words, opposite textual order: internal sorting prevents the
     livelock/deadlock pattern, and atomicity holds. *)
  for seed = 1 to 40 do
    let p = make () in
    let a = p.alloc 0 and b = p.alloc 0 in
    let ok = Array.make 2 false in
    let t0 () = ok.(0) <- p.pmwcas ~tid:0 [ (a, 0, 1, `Shared); (b, 0, 1, `Shared) ] in
    let t1 () = ok.(1) <- p.pmwcas ~tid:1 [ (b, 0, 2, `Shared); (a, 0, 2, `Shared) ] in
    let outcome = Sim.run p.heap ~policy:(Sim.Random_seed seed) ~threads:[ t0; t1 ] in
    Sim.check_thread_errors outcome;
    Alcotest.(check bool) "one winner" true (ok.(0) <> ok.(1));
    Alcotest.(check bool) "words agree" true
      (p.read ~tid:0 a = p.read ~tid:0 b)
  done

let test_reader_never_sees_descriptor () =
  (* While a pmwcas is in flight, a concurrent reader must observe either
     the old or the new value — never a descriptor pointer or a torn
     state. *)
  for seed = 1 to 30 do
    let p = make () in
    let a = p.alloc 0 and b = p.alloc 0 in
    let observations = ref [] in
    let writer () = ignore (p.pmwcas ~tid:0 [ (a, 0, 1, `Shared); (b, 0, 1, `Shared) ]) in
    let reader () =
      for _ = 1 to 5 do
        let va = p.read ~tid:1 a in
        let vb = p.read ~tid:1 b in
        observations := (va, vb) :: !observations
      done
    in
    let outcome =
      Sim.run p.heap ~policy:(Sim.Random_seed seed) ~threads:[ writer; reader ]
    in
    Sim.check_thread_errors outcome;
    List.iter
      (fun (va, vb) ->
        Alcotest.(check bool) "clean values" true
          (List.mem va [ 0; 1 ] && List.mem vb [ 0; 1 ]);
        (* b is installed after a (ascending address order), so seeing
           b=1 while a=0 would be torn... but a reader that helps can
           only see committed states: both orders b<=a must hold. *)
        Alcotest.(check bool) "no torn read" true (va >= vb))
      !observations
  done

(* -------------------------- crash recovery --------------------------- *)

let test_crash_recovery_every_step () =
  (* Crash a 2-word pmwcas at every step, with full and zero eviction;
     after recovery both words agree: either both old or both new. *)
  List.iter
    (fun evict_p ->
      let finished = ref false in
      let step = ref 0 in
      while not !finished do
        let p = make ~nthreads:1 () in
        let a = p.alloc 0 and b = p.alloc 0 in
        let t () = ignore (p.pmwcas ~tid:0 [ (a, 0, 1, `Shared); (b, 0, 1, `Shared) ]) in
        let outcome =
          Sim.run p.heap ~crash:(Sim.Crash_at_step !step) ~threads:[ t ]
        in
        if not outcome.Sim.crashed then finished := true
        else begin
          Sim.apply_crash p.heap ~evict_p ~seed:(4000 + !step);
          p.recover ();
          let va = p.read ~tid:0 a and vb = p.read ~tid:0 b in
          Alcotest.(check bool)
            (Printf.sprintf "atomic after crash at step %d (evict %.1f)" !step
               evict_p)
            true
            ((va = 0 && vb = 0) || (va = 1 && vb = 1))
        end;
        incr step
      done)
    [ 0.0; 1.0; 0.5 ]

let test_crash_recovery_private_word () =
  List.iter
    (fun evict_p ->
      let finished = ref false in
      let step = ref 0 in
      while not !finished do
        let p = make ~nthreads:1 () in
        let a = p.alloc 0 and priv = p.alloc 0 in
        let t () =
          ignore (p.pmwcas ~tid:0 [ (a, 0, 1, `Shared); (priv, 0, 1, `Private) ])
        in
        let outcome =
          Sim.run p.heap ~crash:(Sim.Crash_at_step !step) ~threads:[ t ]
        in
        if not outcome.Sim.crashed then finished := true
        else begin
          Sim.apply_crash p.heap ~evict_p ~seed:(5000 + !step);
          p.recover ();
          let va = p.read ~tid:0 a and vp = p.read ~tid:0 priv in
          Alcotest.(check bool)
            (Printf.sprintf
               "private word atomic with shared after crash at %d" !step)
            true
            ((va = 0 && vp = 0) || (va = 1 && vp = 1))
        end;
        incr step
      done)
    [ 0.0; 1.0 ]

let test_recovery_is_idempotent () =
  let p = make ~nthreads:1 () in
  let a = p.alloc 0 and b = p.alloc 0 in
  let t () = ignore (p.pmwcas ~tid:0 [ (a, 0, 1, `Shared); (b, 0, 1, `Shared) ]) in
  let outcome = Sim.run p.heap ~crash:(Sim.Crash_at_step 12) ~threads:[ t ] in
  Alcotest.(check bool) "crashed mid-operation" true outcome.Sim.crashed;
  Sim.apply_crash p.heap ~evict_p:0.5 ~seed:99;
  p.recover ();
  let va = p.read ~tid:0 a and vb = p.read ~tid:0 b in
  p.recover ();
  Alcotest.(check int) "a stable" va (p.read ~tid:0 a);
  Alcotest.(check int) "b stable" vb (p.read ~tid:0 b)

(* A ring far smaller than the operations run through it, on two real
   domains: every allocation past the first few finds the free list dry
   while the descriptors wait out grace periods, which the other domain
   can hold open whenever it is preempted inside its region.  The
   allocator must pace the epochs forward instead of giving up. *)
let test_native_small_ring () =
  let module P = Dssq_pmwcas.Pmwcas.Make (Dssq_memory.Native) in
  let p = P.create ~ring:2 ~nwords:2 ~nthreads:2 () in
  let shared = P.alloc p 0 in
  let ops = 2_000 in
  let worker tid () =
    for _ = 1 to ops do
      let rec incr () =
        let v = P.read p ~tid shared in
        if not (P.pmwcas p ~tid [ (shared, v, v + 1, `Shared) ]) then incr ()
      in
      incr ()
    done
  in
  let d = Domain.spawn (worker 1) in
  worker 0 ();
  Domain.join d;
  Alcotest.(check int) "every increment applied" (2 * ops)
    (P.read p ~tid:0 shared)

let suite =
  [
    Alcotest.test_case "single word success" `Quick test_single_word_success;
    Alcotest.test_case "single word failure" `Quick test_single_word_failure;
    Alcotest.test_case "multi-word all-or-nothing" `Quick
      test_multi_word_all_or_nothing;
    Alcotest.test_case "private word fast path" `Quick test_private_word;
    Alcotest.test_case "cas1 on managed words" `Quick test_cas1;
    Alcotest.test_case "descriptor pool reuse over many ops" `Quick
      test_descriptor_reuse_many_ops;
    Alcotest.test_case "concurrent disjoint operations" `Quick
      test_concurrent_disjoint;
    Alcotest.test_case "concurrent conflicting operations" `Quick
      test_concurrent_conflicting;
    Alcotest.test_case "opposite word order (no livelock)" `Quick
      test_concurrent_opposite_order;
    Alcotest.test_case "readers never see descriptors" `Quick
      test_reader_never_sees_descriptor;
    Alcotest.test_case "crash at every step: words atomic" `Quick
      test_crash_recovery_every_step;
    Alcotest.test_case "crash: private word atomic with shared" `Quick
      test_crash_recovery_private_word;
    Alcotest.test_case "recovery idempotent" `Quick test_recovery_is_idempotent;
    Alcotest.test_case "native: 2 domains outrun a 2-descriptor ring" `Quick
      test_native_small_ring;
  ]
