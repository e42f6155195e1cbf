(** Property-based tests (qcheck, registered as alcotest cases): the DSS
    queue against the D<queue> reference model, the DSS transformation's
    algebraic laws, the universal construction against the specification
    it is built from, crash/recovery round-trips with random programs,
    and tagged-word encoding. *)

open Helpers
module Q = Specs.Queue

(* ------------------------- generators --------------------------------- *)

(* A queue operation for a random program. *)
type gen_op = Enq of int | Deq | DetEnq of int | DetDeq

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun v -> Enq v) (int_range 0 99));
        (3, return Deq);
        (2, map (fun v -> DetEnq v) (int_range 100 199));
        (2, return DetDeq);
      ])

let arb_program = QCheck.make ~print:(fun ops ->
    String.concat ";"
      (List.map
         (function
           | Enq v -> Printf.sprintf "enq %d" v
           | Deq -> "deq"
           | DetEnq v -> Printf.sprintf "det-enq %d" v
           | DetDeq -> "det-deq")
         ops))
    QCheck.Gen.(list_size (int_range 1 25) gen_op)

(* Reference model: plain functional FIFO. *)
let model_apply (queue, responses) op =
  match op with
  | Enq v | DetEnq v -> (queue @ [ v ], responses)
  | Deq | DetDeq -> (
      match queue with
      | [] -> ([], Queue_intf.empty_value :: responses)
      | x :: rest -> (rest, x :: responses))

(* ------------------------- properties --------------------------------- *)

(* 1. Sequential agreement of the DSS queue with the reference model,
   including mixed detectable and plain operations. *)
let prop_dss_queue_matches_model =
  QCheck.Test.make ~count:300 ~name:"dss queue = FIFO model (sequential)"
    arb_program (fun ops ->
      let q = make_dss_queue ~nthreads:1 ~capacity:64 () in
      let responses = ref [] in
      List.iter
        (fun op ->
          match op with
          | Enq v -> q.enqueue ~tid:0 v
          | DetEnq v ->
              q.prep_enqueue ~tid:0 v;
              q.exec_enqueue ~tid:0
          | Deq -> responses := q.dequeue ~tid:0 :: !responses
          | DetDeq ->
              q.prep_dequeue ~tid:0;
              responses := q.exec_dequeue ~tid:0 :: !responses)
        ops;
      let model_queue, model_responses =
        List.fold_left model_apply ([], []) ops
      in
      q.to_list () = model_queue && !responses = model_responses)

(* 2. Resolve always reports the last prepared operation faithfully. *)
let prop_resolve_reports_last_prepared =
  QCheck.Test.make ~count:300 ~name:"resolve reports last detectable op"
    arb_program (fun ops ->
      let q = make_dss_queue ~nthreads:1 ~capacity:64 () in
      let expected = ref Queue_intf.Nothing in
      List.iter
        (fun op ->
          match op with
          | Enq v -> q.enqueue ~tid:0 v
          | Deq -> ignore (q.dequeue ~tid:0)
          | DetEnq v ->
              q.prep_enqueue ~tid:0 v;
              q.exec_enqueue ~tid:0;
              expected := Queue_intf.Enq_done v
          | DetDeq ->
              q.prep_dequeue ~tid:0;
              let r = q.exec_dequeue ~tid:0 in
              expected :=
                (if r = Queue_intf.empty_value then Queue_intf.Deq_empty
                 else Queue_intf.Deq_done r))
        ops;
      q.resolve ~tid:0 = !expected)

(* 3. DSS transformation: base operations behave exactly like the
   underlying type. *)
let prop_dss_base_ops_transparent =
  let arb_ops =
    QCheck.make
      QCheck.Gen.(
        list_size (int_range 1 20)
          (frequency
             [ (2, map (fun v -> Q.Enqueue v) (int_range 0 50)); (2, return Q.Dequeue) ]))
  in
  QCheck.Test.make ~count:300 ~name:"D<T> base ops = T ops" arb_ops (fun ops ->
      let base = Q.spec () in
      let dss = Dss_spec.make ~nthreads:1 base in
      let tagged = List.map (fun op -> (0, Dss_spec.Base op)) ops in
      let plain = List.map (fun op -> (0, op)) ops in
      match (Spec.run_sequence dss tagged, Spec.run_sequence base plain) with
      | Some (ds, drs), Some (bs, brs) ->
          ds.Dss_spec.base = bs
          && List.for_all2
               (fun dr br ->
                 match dr with Dss_spec.Ret r -> r = br | _ -> false)
               drs brs
      | _ -> false)

(* 4. prep ; resolve^n is idempotent at the specification level. *)
let prop_resolve_idempotent =
  QCheck.Test.make ~count:200 ~name:"resolve idempotent (spec level)"
    QCheck.(pair (int_range 0 50) (int_range 1 5))
    (fun (v, n) ->
      let dss = Dss_spec.make ~nthreads:1 (Q.spec ()) in
      match dss.Spec.apply dss.Spec.init ~tid:0 (Dss_spec.Prep (Q.Enqueue v)) with
      | None -> false
      | Some (s, _) ->
          let rec loop s k acc =
            if k = 0 then acc
            else
              match dss.Spec.apply s ~tid:0 Dss_spec.Resolve with
              | Some (s', r) -> loop s' (k - 1) (r :: acc)
              | None -> []
          in
          let rs = loop s n [] in
          List.length rs = n
          && List.for_all
               (fun r -> r = Dss_spec.Status (Some (Q.Enqueue v), None))
               rs)

(* 5. Tagged words: make/idx/tags round-trip for arbitrary indices. *)
let prop_tagged_roundtrip =
  QCheck.Test.make ~count:500 ~name:"tagged word roundtrip"
    QCheck.(pair (int_bound Tagged.index_mask) (int_bound 31))
    (fun (idx, tagbits) ->
      let tags =
        List.filteri (fun i _ -> tagbits land (1 lsl i) <> 0)
          [ Tagged.enq_prep; Tagged.enq_compl; Tagged.deq_prep; Tagged.empty; Tagged.deq_done ]
        |> List.fold_left ( lor ) 0
      in
      let x = Tagged.make ~idx ~tags in
      Tagged.idx x = idx && Tagged.tags_of x = tags)

(* 6. Crash anywhere in a random detectable program: after recovery and
   retry-driven completion, the surviving values form a legal outcome —
   checked via strict linearizability of the recorded history. *)
let prop_crash_recovery_linearizable =
  let arb =
    QCheck.make
      ~print:(fun (steps, seed, evict, len) ->
        Printf.sprintf "crash_step=%d seed=%d evict=%.2f len=%d" steps seed
          evict len)
      QCheck.Gen.(
        quad (int_range 0 80) (int_range 0 1000)
          (oneofl [ 0.0; 0.5; 1.0 ])
          (int_range 0 3))
  in
  QCheck.Test.make ~count:150 ~name:"random crash: strictly linearizable" arb
    (fun (crash_step, seed, evict_p, preload) ->
      let r =
        Trial.run
          (Trial.queue ~policy:Eager `Dss)
          (queue_program
             ~base:(List.init preload (fun i -> i + 1))
             Specs.Queue.[ Enqueue 10; Dequeue ])
          { seed; crash_step; evict_p; restart_seed = seed + 1 }
      in
      match r.verdict with
      | Lincheck.Linearizable _ -> true
      | Lincheck.Not_linearizable _ -> false)

(* 7. Universal construction agrees with direct application of D<T>. *)
let prop_universal_matches_spec =
  let arb =
    QCheck.make
      QCheck.Gen.(
        list_size (int_range 1 15)
          (frequency
             [
               (2, map (fun v -> `Prep (Q.Enqueue v)) (int_range 0 20));
               (1, return (`Prep Q.Dequeue));
               (2, return `Exec);
               (2, map (fun v -> `Base (Q.Enqueue v)) (int_range 0 20));
               (2, return (`Base Q.Dequeue));
               (1, return `Resolve);
             ]))
  in
  QCheck.Test.make ~count:200 ~name:"universal construction = D<T>" arb
    (fun program ->
      let heap = Heap.create () in
      let (module M) = Sim.memory heap in
      let module U = Dssq_universal.Universal.Make (M) in
      let spec = Q.spec () in
      let dss = Dss_spec.make ~nthreads:1 spec in
      let u = U.create ~nthreads:1 ~capacity:128 spec in
      let state = ref dss.Spec.init in
      let last_prepared = ref None in
      List.for_all
        (fun step ->
          let op =
            match step with
            | `Prep op ->
                last_prepared := Some op;
                Some (Dss_spec.Prep op)
            | `Exec -> Option.map (fun op -> Dss_spec.Exec op) !last_prepared
            | `Base op -> Some (Dss_spec.Base op)
            | `Resolve -> Some Dss_spec.Resolve
          in
          match op with
          | None -> true
          | Some op -> (
              let impl = U.perform u ~tid:0 op in
              match dss.Spec.apply !state ~tid:0 op with
              | Some (s', expected) ->
                  state := s';
                  impl = Some expected
              | None -> impl = None))
        program)

(* 8. The simulator is deterministic: identical seeds give identical
   memory-event statistics. *)
let prop_sim_deterministic =
  QCheck.Test.make ~count:50 ~name:"simulator determinism"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let run () =
        let q = make_dss_queue ~nthreads:3 ~capacity:64 () in
        let program ~tid () =
          q.enqueue ~tid tid;
          ignore (q.dequeue ~tid)
        in
        ignore
          (Sim.run q.heap ~policy:(Sim.Random_seed seed)
             ~threads:(List.init 3 (fun tid -> program ~tid)));
        let s = Heap.stats q.heap in
        (s.Heap.reads, s.Heap.writes, s.Heap.cases, s.Heap.flushes)
      in
      run () = run ())

(* 9. The detectable stack against a functional LIFO model, mixing
   detectable and plain operations. *)
type stack_op = Push of int | Pop | DetPush of int | DetPop

let prop_dss_stack_matches_model =
  let arb =
    QCheck.make
      ~print:(fun ops ->
        String.concat ";"
          (List.map
             (function
               | Push v -> Printf.sprintf "push %d" v
               | Pop -> "pop"
               | DetPush v -> Printf.sprintf "det-push %d" v
               | DetPop -> "det-pop")
             ops))
      QCheck.Gen.(
        list_size (int_range 1 25)
          (frequency
             [
               (3, map (fun v -> Push v) (int_range 0 99));
               (3, return Pop);
               (2, map (fun v -> DetPush v) (int_range 100 199));
               (2, return DetPop);
             ]))
  in
  QCheck.Test.make ~count:300 ~name:"dss stack = LIFO model (sequential)" arb
    (fun ops ->
      let heap = Heap.create () in
      let (module M) = Sim.memory heap in
      let module S = Dssq_core.Dss_stack.Make (M) in
      let s = S.create ~nthreads:1 ~capacity:64 () in
      let responses = ref [] in
      List.iter
        (fun op ->
          match op with
          | Push v -> S.push s ~tid:0 v
          | DetPush v ->
              S.prep_push s ~tid:0 v;
              S.exec_push s ~tid:0
          | Pop -> responses := S.pop s ~tid:0 :: !responses
          | DetPop ->
              S.prep_pop s ~tid:0;
              responses := S.exec_pop s ~tid:0 :: !responses)
        ops;
      let model_stack, model_responses =
        List.fold_left
          (fun (st, rs) op ->
            match op with
            | Push v | DetPush v -> (v :: st, rs)
            | Pop | DetPop -> (
                match st with
                | [] -> ([], Queue_intf.empty_value :: rs)
                | x :: rest -> (rest, x :: rs)))
          ([], []) ops
      in
      S.to_list s = model_stack && !responses = model_responses)

(* 10. The packed detectable register against a trivial model, with
   resolve consistency after every operation. *)
let prop_dss_register_matches_model =
  let arb =
    QCheck.make
      QCheck.Gen.(
        list_size (int_range 1 30)
          (frequency
             [
               (3, map (fun v -> `Write v) (int_range 0 999));
               (3, return `Read);
               (2, map (fun v -> `Det_write v) (int_range 0 999));
             ]))
  in
  QCheck.Test.make ~count:300 ~name:"dss register = register model" arb
    (fun ops ->
      let heap = Heap.create () in
      let (module M) = Sim.memory heap in
      let module R = Dssq_core.Dss_register.Make (M) in
      let r = R.create ~nthreads:1 () in
      let model = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | `Write v ->
              R.write r ~tid:0 v;
              model := v;
              true
          | `Read -> R.read r ~tid:0 = !model
          | `Det_write v ->
              R.prep_write r ~tid:0 v;
              R.exec_write r ~tid:0;
              model := v;
              R.read r ~tid:0 = !model
              && R.resolve r ~tid:0 = R.Write_done v)
        ops)

(* 11. Random PMwCAS batches applied sequentially behave like atomic
   multi-word updates on a reference array. *)
let prop_pmwcas_matches_reference =
  let arb =
    QCheck.make
      QCheck.Gen.(
        list_size (int_range 1 20)
          (list_size (int_range 1 3)
             (pair (int_range 0 5) (int_range 0 50))))
  in
  QCheck.Test.make ~count:200 ~name:"pmwcas = atomic multi-word reference" arb
    (fun batches ->
      let heap = Heap.create () in
      let (module M) = Sim.memory heap in
      let module P = Dssq_pmwcas.Pmwcas.Make (M) in
      let p = P.create ~nwords:6 ~nthreads:1 () in
      let addrs = Array.init 6 (fun _ -> P.alloc p 0) in
      let reference = Array.make 6 0 in
      List.for_all
        (fun batch ->
          (* Dedupe addresses within a batch (a pmwcas touches each word
             once). *)
          let batch =
            List.sort_uniq (fun (a, _) (b, _) -> compare a b) batch
          in
          let entries =
            List.map
              (fun (i, nv) -> (addrs.(i), reference.(i), nv, `Shared))
              batch
          in
          let ok = P.pmwcas p ~tid:0 entries in
          if ok then List.iter (fun (i, nv) -> reference.(i) <- nv) batch;
          (* With correct expectations the op must succeed, and memory
             must equal the reference afterwards either way. *)
          ok
          && List.for_all
               (fun i -> P.read p ~tid:0 addrs.(i) = reference.(i))
               [ 0; 1; 2; 3; 4; 5 ])
        batches)

(* 12. Explorer coverage: the number of executions of two independent
   single-step threads matches the closed form. *)
let prop_explore_counts =
  QCheck.Test.make ~count:20 ~name:"explorer visits all interleavings"
    QCheck.(int_range 1 3)
    (fun n ->
      (* n threads, one memory op each => each thread contributes 2 steps
         (start + op); executions = multinomial (2n)! / 2!^n. *)
      let expected =
        let fact k = List.fold_left ( * ) 1 (List.init k (fun i -> i + 1)) in
        fact (2 * n) / int_of_float (2. ** float_of_int n)
      in
      let count =
        (* [reduction:false]: the closed form counts raw interleavings;
           the threads touch distinct cells, so the sleep-set search
           would visit strictly fewer (see test_explore.ml). *)
        (Explore.run
           (Explore.make ~reduction:false
             ~setup:(fun () ->
               let heap = Heap.create () in
               let (module M) = Sim.memory heap in
               let cells = Array.init n (fun _ -> M.alloc 0) in
               {
                 Explore.history = Explore.no_history;
                 prologue = ignore;
                 ctx = ();
                 heap;
                 threads =
                   List.init n (fun i () -> M.write cells.(i) 1);
               })
              ~check:(fun () _ ~crashed:_ -> ())
              ()))
          .Explore.executions
      in
      count = expected)

(* 13. Flush coalescing is persistence-equivalent to eager flushing: run
   one random single-threaded memory program against two heaps, one
   flushing eagerly ([drain] is a no-op) and one created with
   [~policy:Coalesced], whose [Heap.flush] routes every flush through the
   per-thread persist buffer ([Heap.drain] retires it).  At every
   persistence point — each drain, each fence, and the end of the
   program — the persisted contents and the dirty-line set of the two
   heaps must coincide.  Between persistence points they legitimately
   differ (that deferral is the whole optimisation); at them, coalescing
   must be invisible. *)
type mem_op =
  | MWrite of int * int
  | MCas of int * int
  | MFlush of int
  | MDrain
  | MFence

let prop_coalescing_matches_eager =
  let module Cell = Dssq_pmem.Cell in
  let ncells = 4 in
  let gen_mem_op =
    QCheck.Gen.(
      frequency
        [
          ( 4,
            map2
              (fun c v -> MWrite (c, v))
              (int_bound (ncells - 1))
              (int_range 0 99) );
          ( 2,
            map2
              (fun c v -> MCas (c, v))
              (int_bound (ncells - 1))
              (int_range 0 99) );
          (4, map (fun c -> MFlush c) (int_bound (ncells - 1)));
          (2, return MDrain);
          (1, return MFence);
        ])
  in
  let pp_op = function
    | MWrite (c, v) -> Printf.sprintf "w%d<-%d" c v
    | MCas (c, v) -> Printf.sprintf "cas%d<-%d" c v
    | MFlush c -> Printf.sprintf "fl%d" c
    | MDrain -> "drain"
    | MFence -> "fence"
  in
  let arb =
    QCheck.make
      ~print:(fun (ls, ops) ->
        Printf.sprintf "line_size=%d [%s]" ls
          (String.concat ";" (List.map pp_op ops)))
      QCheck.Gen.(
        pair (oneofl [ 1; 2; 8 ]) (list_size (int_range 1 60) gen_mem_op))
  in
  QCheck.Test.make ~count:300
    ~name:"coalesced persistence points = eager persistence" arb
    (fun (line_size, ops) ->
      (* Interpret the program on one heap; snapshot (dirty lines,
         persisted values) at every persistence point. *)
      let run policy =
        let heap = Heap.create ~line_size ~policy () in
        let cells = Array.init ncells (fun i -> Heap.alloc heap i) in
        let snapshots = ref [] in
        let snap () =
          snapshots :=
            ( Heap.dirty_lines heap,
              Array.to_list
                (Array.map (fun c -> c.Cell.persisted) cells) )
            :: !snapshots
        in
        List.iter
          (fun op ->
            match op with
            | MWrite (c, v) -> Heap.write heap cells.(c) v
            | MCas (c, v) ->
                let cur = Heap.read heap cells.(c) in
                ignore (Heap.cas heap cells.(c) ~expected:cur ~desired:v)
            | MFlush c -> Heap.flush heap cells.(c)
            | MDrain ->
                Heap.drain heap;
                snap ()
            | MFence ->
                Heap.fence heap;
                snap ())
          (ops @ [ MDrain ]);
        !snapshots
      in
      run Eager = run Coalesced)

(* 14. Flat combining is observationally equivalent to eager execution:
   one random sequential schedule of detectable swap pairs (prep;exec by
   alternating threads) is driven twice over sim heaps — once eager,
   once with [~combine:true] on a combine-mode (buffered) heap — and
   every observable must coincide: each operation's response, the
   resolve verdict of every thread after a crash at a chosen batch
   boundary (combine installs close one persist epoch per batch, so
   between operations IS the boundary), the retried responses, and the
   recovered abstract state.  Flush/fence counts legitimately differ —
   that deferral is the optimisation — but nothing the caller or the
   recovery protocol can see may.  The crash point ranges over every
   boundary and both crash kinds (after prep: resolve must say Pending
   and the retry must agree; after exec: resolve must say Done with the
   same response), under both extreme eviction verdicts. *)
let prop_combine_matches_eager =
  let module Sw = Dssq_spec.Specs.Swap in
  let gen_op =
    QCheck.Gen.(
      pair (int_bound 1)
        (frequency
           [ (3, map (fun v -> Sw.Swap v) (int_range 0 20)); (1, return Sw.Read) ]))
  in
  let pp_op = function Sw.Swap v -> Printf.sprintf "swap%d" v | Sw.Read -> "read" in
  let arb =
    QCheck.make
      ~print:(fun (ops, crash_at, after_prep, evict) ->
        Printf.sprintf "[%s] crash_at=%d after_prep=%b evict=%.0f"
          (String.concat ";"
             (List.map (fun (t, o) -> Printf.sprintf "t%d:%s" t (pp_op o)) ops))
          crash_at after_prep evict)
      QCheck.Gen.(
        quad
          (list_size (int_range 1 10) gen_op)
          (int_range 0 10) bool
          (oneofl [ 0.0; 1.0 ]))
  in
  QCheck.Test.make ~count:300 ~name:"flat combining = eager (observations)"
    arb
    (fun (ops, crash_at, after_prep, evict_p) ->
      let run ~combine =
        (* One world: the swap object, its operations as closures.  A
           crash restarts cold, into a fresh world. *)
        let world () =
          let heap = Heap.create ~combine () in
          let (module M) = Sim.memory heap in
          let module O = Dssq_core.Dss_swap.Make (M) in
          let o = O.create ~combine ~nthreads:2 () in
          Heap.log_persists heap;
          let exec ~tid =
            let (Sw.Value v) = O.exec o ~tid in
            v
          in
          let resolved ~tid =
            ( Format.asprintf "%a" O.pp_resolved (O.resolve o ~tid),
              match O.resolve o ~tid with Pending _ -> true | _ -> false )
          in
          (heap, O.prep o, exec, resolved, (fun () -> O.recover o), fun () ->
            O.peek o)
        in
        let live = ref (world ()) in
        let obs = ref [] in
        let note x = obs := x :: !obs in
        let crash () =
          let heap, _, _, _, _, _ = !live in
          let ((heap', _, exec, resolved, recover, _) as fresh) = world () in
          Sim.restart heap ~into:heap' ~evict_p ~seed:42;
          live := fresh;
          recover ();
          for tid = 0 to 1 do
            let verdict, pending = resolved ~tid in
            note verdict;
            if pending then note (Printf.sprintf "retry:%d" (exec ~tid))
          done
        in
        List.iteri
          (fun i (tid, op) ->
            let boundary = i = crash_at in
            let _, prep, exec, _, _, _ = !live in
            prep ~tid op;
            if boundary && after_prep then crash ()
            else begin
              note (Printf.sprintf "resp:%d" (exec ~tid));
              if boundary then crash ()
            end)
          ops;
        let _, _, _, _, _, peek = !live in
        note (Printf.sprintf "final:%d" (peek ()));
        List.rev !obs
      in
      run ~combine:false = run ~combine:true)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_dss_queue_matches_model;
      prop_resolve_reports_last_prepared;
      prop_dss_base_ops_transparent;
      prop_resolve_idempotent;
      prop_tagged_roundtrip;
      prop_crash_recovery_linearizable;
      prop_universal_matches_spec;
      prop_sim_deterministic;
      prop_dss_stack_matches_model;
      prop_dss_register_matches_model;
      prop_pmwcas_matches_reference;
      prop_explore_counts;
      prop_coalescing_matches_eager;
      prop_combine_matches_eager;
    ]
