(** Tests for the detectable hash map composed from detectable cells:
    functional behaviour against a model, probing/tombstone edge cases,
    detection lifecycle, crash sweeps with exactly-once retry, and
    concurrent use. *)

open Helpers

type hm = {
  heap : Heap.t;
  put : tid:int -> int -> int -> unit;
  remove : tid:int -> int -> unit;
  find : int -> int option;
  mem : int -> bool;
  resolve : tid:int -> string;
  resolve_kind :
    tid:int ->
    [ `Nothing
    | `Put_pending of int * int
    | `Put_done of int * int
    | `Remove_pending of int
    | `Remove_done of int ];
  to_alist : unit -> (int * int) list;
}

let make ~nthreads ~nbuckets () : hm =
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let module H = Dssq_core.Dss_hashmap.Make (M) in
  let h = H.create ~nthreads ~nbuckets () in
  Heap.log_persists heap;
  {
    heap;
    put = (fun ~tid k v -> H.put h ~tid k v);
    remove = (fun ~tid k -> H.remove h ~tid k);
    find = (fun k -> H.find h k);
    mem = (fun k -> H.mem h k);
    resolve =
      (fun ~tid -> Format.asprintf "%a" H.pp_resolved (H.resolve h ~tid));
    resolve_kind =
      (fun ~tid ->
        match H.resolve h ~tid with
        | H.Nothing -> `Nothing
        | H.Put_pending (k, v) -> `Put_pending (k, v)
        | H.Put_done (k, v) -> `Put_done (k, v)
        | H.Remove_pending k -> `Remove_pending k
        | H.Remove_done k -> `Remove_done k);
    to_alist = (fun () -> H.to_alist h);
  }

let test_basic () =
  let h = make ~nthreads:1 ~nbuckets:16 () in
  Alcotest.(check (option int)) "absent" None (h.find 1);
  h.put ~tid:0 1 10;
  h.put ~tid:0 2 20;
  Alcotest.(check (option int)) "k1" (Some 10) (h.find 1);
  Alcotest.(check (option int)) "k2" (Some 20) (h.find 2);
  h.put ~tid:0 1 11;
  Alcotest.(check (option int)) "update" (Some 11) (h.find 1);
  h.remove ~tid:0 1;
  Alcotest.(check (option int)) "removed" None (h.find 1);
  Alcotest.(check bool) "mem" true (h.mem 2)

let test_collisions_and_tombstones () =
  (* Tiny table: forced collisions and tombstone reuse. *)
  let h = make ~nthreads:1 ~nbuckets:4 () in
  h.put ~tid:0 1 1;
  h.put ~tid:0 5 5;
  h.put ~tid:0 9 9;
  Alcotest.(check (option int)) "1" (Some 1) (h.find 1);
  Alcotest.(check (option int)) "5" (Some 5) (h.find 5);
  Alcotest.(check (option int)) "9" (Some 9) (h.find 9);
  h.remove ~tid:0 5;
  Alcotest.(check (option int)) "5 removed" None (h.find 5);
  (* 9 must still be reachable across the tombstone. *)
  Alcotest.(check (option int)) "9 probes across tombstone" (Some 9) (h.find 9);
  (* New key reuses the tombstone slot. *)
  h.put ~tid:0 13 13;
  Alcotest.(check (option int)) "13" (Some 13) (h.find 13)

let test_full () =
  let h = make ~nthreads:1 ~nbuckets:2 () in
  h.put ~tid:0 1 1;
  h.put ~tid:0 2 2;
  Alcotest.check_raises "full" Dssq_core.Dss_hashmap.Full (fun () ->
      h.put ~tid:0 3 3)

let test_detection_lifecycle () =
  let h = make ~nthreads:2 ~nbuckets:16 () in
  Alcotest.(check bool) "initially nothing" true (h.resolve_kind ~tid:0 = `Nothing);
  h.put ~tid:0 7 70;
  Alcotest.(check bool) "put done" true (h.resolve_kind ~tid:0 = `Put_done (7, 70));
  h.remove ~tid:0 7;
  Alcotest.(check bool) "remove done" true
    (h.resolve_kind ~tid:0 = `Remove_done 7);
  Alcotest.(check bool) "per-thread" true (h.resolve_kind ~tid:1 = `Nothing)

(* Model-based random testing against an association list. *)
let prop_matches_model =
  let arb =
    QCheck.make
      QCheck.Gen.(
        list_size (int_range 1 40)
          (frequency
             [
               (4, map2 (fun k v -> `Put (k, v)) (int_range 1 12) (int_range 0 99));
               (2, map (fun k -> `Remove k) (int_range 1 12));
               (3, map (fun k -> `Find k) (int_range 1 12));
             ]))
  in
  QCheck.Test.make ~count:200 ~name:"hashmap = assoc model" arb (fun ops ->
      let h = make ~nthreads:1 ~nbuckets:32 () in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun op ->
          match op with
          | `Put (k, v) ->
              h.put ~tid:0 k v;
              Hashtbl.replace model k v;
              true
          | `Remove k ->
              h.remove ~tid:0 k;
              Hashtbl.remove model k;
              true
          | `Find k -> h.find k = Hashtbl.find_opt model k)
        ops
      && List.sort compare (h.to_alist ())
         = List.sort compare
             (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []))

(* ---------------------------- crash sweeps ------------------------- *)

let setup () = make ~nthreads:1 ~nbuckets:16 ()
let hm_heap h = h.heap

let test_crash_sweep_put () =
  List.iter
    (fun evict_p ->
      ignore
      @@ sweep_crashes ~setup ~heap:hm_heap ~evict_p
           ~seed:(fun step -> 300_000 + step)
           (fun ~step h ->
             h.put ~tid:0 3 30;
             ( [ (fun () -> h.put ~tid:0 7 70) ],
               fun _ -> function
                 | None -> ()
                 | Some h ->
                     (match h.resolve_kind ~tid:0 with
                     | `Put_done (7, 70) ->
                         Alcotest.(check (option int))
                           (Printf.sprintf "done => stored (step %d)" step)
                           (Some 70) (h.find 7)
                     | `Put_pending (7, 70) ->
                         Alcotest.(check (option int))
                           (Printf.sprintf "pending => absent (step %d)" step)
                           None (h.find 7);
                         h.put ~tid:0 7 70;
                         Alcotest.(check (option int)) "retry lands" (Some 70)
                           (h.find 7)
                     | `Put_done (3, 30) | `Nothing ->
                         (* The announcement itself was lost: previous op (or
                            none) is reported; 7 cannot be present. *)
                         Alcotest.(check (option int)) "ann lost => absent" None
                           (h.find 7)
                     | _ ->
                         Alcotest.failf "unexpected resolution at step %d: %s"
                           step (h.resolve ~tid:0));
                     Alcotest.(check (option int)) "pre-existing key survives"
                       (Some 30) (h.find 3) )))
    [ 0.0; 1.0; 0.5 ]

let test_crash_sweep_remove () =
  ignore
  @@ sweep_crashes ~setup ~heap:hm_heap ~evict_p:0.5
       ~seed:(fun step -> 400_000 + step)
       (fun ~step h ->
         h.put ~tid:0 3 30;
         h.put ~tid:0 7 70;
         ( [ (fun () -> h.remove ~tid:0 7) ],
           fun _ -> function
             | None -> ()
             | Some h ->
                 (match h.resolve_kind ~tid:0 with
                 | `Remove_done 7 ->
                     Alcotest.(check (option int)) "done => gone" None (h.find 7)
                 | `Remove_pending 7 ->
                     if h.mem 7 then begin
                       h.remove ~tid:0 7;
                       Alcotest.(check (option int)) "retry removes" None
                         (h.find 7)
                     end
                 | `Put_done (7, 70) | `Nothing ->
                     (* announcement lost; remove never started *)
                     Alcotest.(check (option int)) "still present" (Some 70)
                       (h.find 7)
                 | _ ->
                     Alcotest.failf "unexpected resolution at step %d: %s" step
                       (h.resolve ~tid:0));
                 Alcotest.(check (option int)) "other key survives" (Some 30)
                   (h.find 3) ))

let test_concurrent_disjoint_keys () =
  for seed = 1 to 20 do
    let h = make ~nthreads:3 ~nbuckets:64 () in
    let prog ~tid () =
      for i = 0 to 5 do
        let k = 1 + (tid * 10) + i in
        h.put ~tid k (k * 2)
      done
    in
    let outcome =
      Sim.run h.heap ~policy:(Sim.Random_seed seed)
        ~threads:(List.init 3 (fun tid -> prog ~tid))
    in
    Sim.check_thread_errors outcome;
    for tid = 0 to 2 do
      for i = 0 to 5 do
        let k = 1 + (tid * 10) + i in
        Alcotest.(check (option int))
          (Printf.sprintf "key %d" k)
          (Some (k * 2)) (h.find k)
      done
    done
  done

let test_concurrent_same_key () =
  (* Racing puts on one key: the final value is one of the written
     values, and each thread's resolve reports its own op. *)
  for seed = 1 to 20 do
    let h = make ~nthreads:2 ~nbuckets:8 () in
    let prog ~tid () = h.put ~tid 5 (100 + tid) in
    let outcome =
      Sim.run h.heap ~policy:(Sim.Random_seed seed)
        ~threads:[ prog ~tid:0; prog ~tid:1 ]
    in
    Sim.check_thread_errors outcome;
    (match h.find 5 with
    | Some v -> Alcotest.(check bool) "one of the writes" true (v = 100 || v = 101)
    | None -> Alcotest.fail "key lost");
    Alcotest.(check bool) "t0 done" true
      (h.resolve_kind ~tid:0 = `Put_done (5, 100));
    Alcotest.(check bool) "t1 done" true
      (h.resolve_kind ~tid:1 = `Put_done (5, 101))
  done

let suite =
  [
    Alcotest.test_case "basic put/find/remove" `Quick test_basic;
    Alcotest.test_case "collisions and tombstones" `Quick
      test_collisions_and_tombstones;
    Alcotest.test_case "capacity exhaustion" `Quick test_full;
    Alcotest.test_case "detection lifecycle" `Quick test_detection_lifecycle;
    QCheck_alcotest.to_alcotest prop_matches_model;
    Alcotest.test_case "crash sweep: put" `Quick test_crash_sweep_put;
    Alcotest.test_case "crash sweep: remove" `Quick test_crash_sweep_remove;
    Alcotest.test_case "concurrent disjoint keys" `Quick
      test_concurrent_disjoint_keys;
    Alcotest.test_case "concurrent same key" `Quick test_concurrent_same_key;
  ]
