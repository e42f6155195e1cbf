(** One persist policy, two backends: the simulated heap and the counted
    native backend must account the same program identically under each
    {!Dssq_memory.Memory_intf.Policy.t} — in their counters and in the
    persist events they emit. *)

module MI = Dssq_memory.Memory_intf
module Policy = MI.Policy
module Heap = Dssq_pmem.Heap
module Native = Dssq_memory.Native
module Sim = Dssq_sim.Sim
module PE = Dssq_memory.Persist_event

(* A fixed single-thread program touching every buffer path: a
   re-flushed line (coalesced), a store behind a buffered flush (drained
   first under [Coalesced]), a flush of a clean line (elided), stores
   never flushed but fenced (enqueued under [Combine]), a fence with
   lines pending (one barrier, not two) and fences with none. *)
let program (module M : MI.COUNTED) =
  let a = M.alloc ~name:(fun () -> "a") ~placement:MI.Line.Isolated 0 in
  let b = M.alloc ~name:(fun () -> "b") ~placement:MI.Line.Isolated 0 in
  M.reset_counters ();
  M.write a 1;
  ignore (M.read a : int);
  M.flush a;
  M.flush a;
  M.write b 1;
  M.flush b;
  M.drain ();
  M.flush a;
  M.write a 2;
  M.fence ();
  M.write b 2;
  M.flush b;
  M.fence ();
  M.fence ();
  ignore (M.cas a ~expected:2 ~desired:3 : bool);
  M.flush a;
  M.drain ();
  let c = M.counters () in
  [
    ("flushes", c.MI.flushes);
    ("elided_flushes", c.MI.elided_flushes);
    ("coalesced_flushes", c.MI.coalesced_flushes);
    ("fences", c.MI.fences);
    ("elided_fences", c.MI.elided_fences);
  ]

let kind_label : PE.kind -> string = function
  | Read -> "read"
  | Write -> "write"
  | Cas hit -> Printf.sprintf "cas hit=%b" hit
  | Flush Written_back -> "flush"
  | Flush Elided -> "elide"
  | Flush Coalesced -> "coalesce"
  | Flush Buffered -> "buffer"
  | Write_back { effective; adversary } ->
      Printf.sprintf "write-back effective=%b adversary=%b" effective adversary
  | Fence absorbed -> Printf.sprintf "fence absorbing %d" absorbed
  | Verdict evicted -> Printf.sprintf "verdict evicted=%b" evicted
  | Crashed -> "crashed"
  | Alloc -> "alloc"

(* The program's counters, then its event counts per kind from a stream
   subscriber. *)
let measure m =
  let counts = Hashtbl.create 16 in
  let bump (ev : PE.t) =
    let k = kind_label ev.kind in
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  in
  let sub = PE.subscribe bump in
  let counters = Fun.protect ~finally:(fun () -> PE.unsubscribe sub) (fun () -> program m) in
  counters @ List.sort compare (List.of_seq (Hashtbl.to_seq counts))

let heap_of policy ~line_size =
  match policy with
  | Policy.Eager -> Heap.create ~line_size ()
  | Policy.Coalesced -> Heap.create ~line_size ~coalesce:true ()
  | Policy.Px86 -> Heap.create ~line_size ~persistency:MI.Persistency.Px86 ()
  | Policy.Combine -> Heap.create ~line_size ~combine:true ()

let test_parity policy () =
  List.iter
    (fun line_size ->
      let heap = heap_of policy ~line_size in
      Alcotest.(check string)
        "heap resolves the policy" (Policy.to_string policy)
        (Policy.to_string (Heap.policy heap));
      let sim = measure (Sim.counted_memory heap) in
      let native =
        Fun.protect
          ~finally:(fun () -> Native.set_line_size 1)
          (fun () ->
            Native.set_line_size line_size;
            measure
              (module Native.Make
                        (struct
                          let policy = policy
                        end)
                        ()))
      in
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "native = sim at line size %d" line_size)
        sim native)
    [ 1; 8 ]

(* Policy.of_axes is the single place the flag combinations resolve. *)
let test_of_axes () =
  let resolve ~px86 ~coalesce ~combine =
    Policy.to_string
      (Policy.of_axes
         ~persistency:(if px86 then MI.Persistency.Px86 else MI.Persistency.Sc)
         ~coalesce ~combine)
  in
  let bools = [ false; true ] in
  List.iter
    (fun px86 ->
      List.iter
        (fun coalesce ->
          List.iter
            (fun combine ->
              let expected =
                if combine then "combine"
                else if px86 then "px86"
                else if coalesce then "coalesced"
                else "eager"
              in
              Alcotest.(check string)
                (Printf.sprintf "px86=%b coalesce=%b combine=%b" px86 coalesce
                   combine)
                expected
                (resolve ~px86 ~coalesce ~combine))
            bools)
        bools)
    bools

let suite =
  Alcotest.test_case "of_axes maps eight flag sets onto four policies" `Quick
    test_of_axes
  :: List.map
       (fun p ->
         Alcotest.test_case
           (Printf.sprintf "sim and native count alike under %s"
              (Policy.to_string p))
           `Quick (test_parity p))
       [ Policy.Eager; Policy.Coalesced; Policy.Px86; Policy.Combine ]
