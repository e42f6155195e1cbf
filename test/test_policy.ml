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
   lines pending (one barrier, not two) and fences with none, then a
   store flushed twice and drained: at line size 1 the eager second
   flush still writes back, the buffered one coalesces. *)
let program (module M : MI.COUNTED) =
  let a = M.alloc ~name:(fun () -> "a") ~placement:MI.Line.Isolated 0 in
  let b = M.alloc ~name:(fun () -> "b") ~placement:MI.Line.Isolated 0 in
  let c = M.alloc ~name:(fun () -> "c") ~placement:MI.Line.Isolated 0 in
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
  M.write c 1;
  M.flush c;
  M.flush c;
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

(* The program's counters, then its event counts per kind and [dirty]
   payload from a stream subscriber.  Every cell has a line of its own,
   so the sim's per-cell payload and the native per-line one agree. *)
let measure m =
  let counts = Hashtbl.create 16 in
  let bump (ev : PE.t) =
    let k = Printf.sprintf "%s dirty=%b" (kind_label ev.kind) ev.dirty in
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  in
  let sub = PE.subscribe bump in
  let counters = Fun.protect ~finally:(fun () -> PE.unsubscribe sub) (fun () -> program m) in
  counters @ List.sort compare (List.of_seq (Hashtbl.to_seq counts))

let test_parity policy () =
  List.iter
    (fun line_size ->
      let heap = Heap.create ~line_size ~policy () in
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

(* The plain eager path at line size 1 keeps no dirty flag, yet every
   flush still writes back (the legacy word-granular model); at line
   size 8 a clean line's flush is elided.  The counted backends, which
   mark every line, are held to the sim heap by [test_parity], dirty
   payloads included. *)
let test_native_word_granular () =
  let flushes line_size =
    Fun.protect
      ~finally:(fun () -> Native.set_line_size 1)
      (fun () ->
        Native.set_line_size line_size;
        let a = Native.alloc 0 in
        let before = Native.flush_line a in
        Native.write a 1;
        let first = Native.flush_line a in
        let second = Native.flush_line a in
        let cas = Native.cas a ~expected:1 ~desired:2 in
        let after_cas = Native.flush_line a in
        let missed = Native.cas a ~expected:1 ~desired:3 in
        let after_miss = Native.flush_line a in
        [ before; first; second; cas; after_cas; missed; after_miss ])
  in
  Alcotest.(check (list bool))
    "line size 1: every flush writes back"
    [ true; true; true; true; true; false; true ]
    (flushes 1);
  Alcotest.(check (list bool))
    "line size 8: a clean line's flush is elided"
    [ false; true; false; true; true; false; false ]
    (flushes 8)

let test_of_string () =
  List.iter
    (fun p ->
      Alcotest.(check (option string))
        "of_string inverts to_string" (Some (Policy.to_string p))
        (Option.map Policy.to_string (Policy.of_string (Policy.to_string p))))
    Policy.all;
  Alcotest.(check bool) "unknown name" true (Policy.of_string "sc" = None)

(* [~combine:true] is shorthand for [~policy:Combine], never a second
   axis: naming a different policy beside it is refused. *)
let test_combine_shorthand () =
  let policy_of h = Policy.to_string (Heap.policy h) in
  Alcotest.(check string) "shorthand" "combine"
    (policy_of (Heap.create ~combine:true ()));
  Alcotest.(check string) "agreeing policy" "combine"
    (policy_of (Heap.create ~combine:true ~policy:Combine ()));
  Alcotest.check_raises "conflicting policy"
    (Invalid_argument "Heap.create: ~combine:true with a different ~policy")
    (fun () -> ignore (Heap.create ~combine:true ~policy:Px86 () : Heap.t))

let suite =
  Alcotest.test_case "of_string inverts to_string" `Quick test_of_string
  :: Alcotest.test_case "native line size 1: every eager flush writes back"
       `Quick test_native_word_granular
  :: Alcotest.test_case "~combine:true with another policy is refused" `Quick
       test_combine_shorthand
  :: List.map
       (fun p ->
         Alcotest.test_case
           (Printf.sprintf "sim and native count alike under %s"
              (Policy.to_string p))
           `Quick (test_parity p))
       Policy.all
