(** Tests for the event tracer: the no-op off state, ring-buffer bounds
    and drop-oldest eviction, heap/sim emission with crash verdicts, the
    Chrome trace-event exporter, the native Counted hook, and the
    trace-carrying lincheck counterexample. *)

module Trace = Dssq_obs.Trace
module Json = Dssq_obs.Json
module Heap = Dssq_pmem.Heap
module Sim = Dssq_sim.Sim
module Spec = Dssq_spec.Spec
module Specs = Dssq_spec.Specs
module Recorder = Dssq_history.Recorder
module Lincheck = Dssq_lincheck.Lincheck

let contains hay needle =
  let ln = String.length needle and lh = String.length hay in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let events t = List.map (fun (e : Trace.entry) -> e.Trace.event) (Trace.entries t)

let test_off_is_noop () =
  Trace.stop ();
  Alcotest.(check bool) "off" false (Trace.is_on ());
  Alcotest.(check bool) "no active tracer" true (Trace.active () = None);
  (* emitters are safe no-ops *)
  Trace.op_begin "op" ~args:"";
  Alcotest.(check bool) "not subscribed to the event stream" false
    (Dssq_memory.Persist_event.is_on ());
  Trace.recovery_begin ();
  Trace.resolve ~outcome:"nothing";
  Alcotest.(check bool) "still off" false (Trace.is_on ())

let test_ring_drop_oldest () =
  let t = Trace.start ~capacity:4 () in
  Trace.set_tid 0;
  for i = 1 to 10 do
    Trace.op_begin "op" ~args:(string_of_int i)
  done;
  Trace.stop ();
  Alcotest.(check int) "capacity bounds retention" 4
    (List.length (Trace.entries t));
  Alcotest.(check int) "recorded counts everything" 10 (Trace.recorded t);
  Alcotest.(check int) "dropped counts evictions" 6 (Trace.dropped t);
  let args =
    List.map
      (function Trace.Op_begin { args; _ } -> args | _ -> assert false)
      (events t)
  in
  Alcotest.(check (list string)) "the newest window is kept"
    [ "7"; "8"; "9"; "10" ] args

let test_per_thread_rings () =
  let t = Trace.start ~capacity:2 () in
  Trace.set_tid 0;
  Trace.op_begin "a" ~args:"";
  Trace.set_tid 1;
  for _ = 1 to 5 do
    Trace.op_begin "b" ~args:""
  done;
  Trace.stop ();
  (* thread 1 overflowed only its own ring; thread 0's entry survives *)
  Alcotest.(check int) "entries" 3 (List.length (Trace.entries t));
  Alcotest.(check int) "dropped" 3 (Trace.dropped t);
  Alcotest.(check bool) "t0 entry retained" true
    (List.exists (fun (e : Trace.entry) -> e.Trace.tid = 0) (Trace.entries t));
  (* the per-thread breakdown names the overflowing ring only, and its
     drops sum to the total *)
  Alcotest.(check (list (pair int int)))
    "dropped_by_thread blames only t1"
    [ (1, 3) ]
    (Trace.dropped_by_thread t);
  Alcotest.(check bool)
    "drops are mirrored into the metrics registry" true
    (match
       List.assoc_opt "trace.dropped_events" (Dssq_obs.Metrics.snapshot ())
     with
    | Some n -> n >= 3
    | None -> false)

let test_heap_emission_and_crash_verdicts () =
  let h = Heap.create () in
  let a = Heap.alloc h ~name:(fun () -> "a") 0 in
  let b = Heap.alloc h ~name:(fun () -> "b") 0 in
  let t = Trace.start () in
  Heap.write h a 1;
  Heap.flush h a;
  Heap.write h b 2 (* left dirty *);
  ignore (Heap.read h a);
  ignore (Heap.cas h a ~expected:1 ~desired:3) (* a dirty again *);
  Heap.fence h;
  Heap.crash_into h ~into:h ~drains:[] ~evict:(fun _ -> true);
  Trace.stop ();
  let es = events t in
  (match
     List.find_map
       (function Trace.Crash { verdicts } -> Some verdicts | _ -> None)
       es
   with
  | None -> Alcotest.fail "no crash event"
  | Some vs ->
      Alcotest.(check int) "both dirty cells have verdicts" 2 (List.length vs);
      Alcotest.(check bool) "all evicted under evict=true" true
        (List.for_all (fun (_, _, evicted) -> evicted) vs));
  Alcotest.(check bool) "flush records post-event cleanliness" true
    (List.exists
       (function
         | Trace.Mem { op = `Flush; cell_name = "a"; dirty = false; _ } -> true
         | _ -> false)
       es);
  Alcotest.(check bool) "write records post-event dirtiness" true
    (List.exists
       (function
         | Trace.Mem { op = `Write; cell_name = "b"; dirty = true; _ } -> true
         | _ -> false)
       es);
  Alcotest.(check bool) "fence recorded" true
    (List.exists
       (function Trace.Mem { op = `Fence; _ } -> true | _ -> false)
       es)

(* The acceptance workload: a crash-injecting simulated run followed by
   recovery and resolve, traced end to end. *)
let run_crashy_workload () =
  let module World (M : Dssq_memory.Memory_intf.S) = struct
    module Q = Dssq_core.Dss_queue.Make (M)

    let q = Q.create ~nthreads:2 ~capacity:64 ()
    let () = List.iter (fun v -> Q.enqueue q ~tid:0 v) [ 1; 2 ]
  end in
  let live = Heap.create () in
  let (module L) = Sim.memory live in
  let module L = World (L) in
  Heap.log_persists live;
  let t = Trace.start () in
  Heap.fence live;
  let enq () =
    L.Q.prep_enqueue L.q ~tid:0 7;
    L.Q.exec_enqueue L.q ~tid:0
  in
  let deq () =
    L.Q.prep_dequeue L.q ~tid:1;
    ignore (L.Q.exec_dequeue L.q ~tid:1)
  in
  let outcome =
    Sim.run live ~policy:(Sim.Random_seed 3) ~crash:(Sim.Crash_at_step 20)
      ~threads:[ enq; deq ]
  in
  Alcotest.(check bool) "the run crashed" true outcome.Sim.crashed;
  (* Restart cold: a fresh set-up, untraced, loaded with the crash's
     image. *)
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let recover, resolve =
    Trace.muted (fun () ->
        let module W = World (M) in
        ((fun () -> W.Q.recover W.q), fun ~tid -> W.Q.resolve W.q ~tid))
  in
  Sim.restart live ~into:heap ~evict_p:0.5 ~seed:3;
  recover ();
  ignore (resolve ~tid:0);
  ignore (resolve ~tid:1);
  Trace.stop ();
  t

let test_workload_covers_every_kind () =
  let t = run_crashy_workload () in
  let es = events t in
  let has p = List.exists p es in
  Alcotest.(check bool) "op begin" true
    (has (function Trace.Op_begin _ -> true | _ -> false));
  Alcotest.(check bool) "op end" true
    (has (function Trace.Op_end _ -> true | _ -> false));
  Alcotest.(check bool) "read" true
    (has (function Trace.Mem { op = `Read; _ } -> true | _ -> false));
  Alcotest.(check bool) "write" true
    (has (function Trace.Mem { op = `Write; _ } -> true | _ -> false));
  Alcotest.(check bool) "flush" true
    (has (function Trace.Mem { op = `Flush; _ } -> true | _ -> false));
  Alcotest.(check bool) "fence" true
    (has (function Trace.Mem { op = `Fence; _ } -> true | _ -> false));
  Alcotest.(check bool) "crash" true
    (has (function Trace.Crash _ -> true | _ -> false));
  Alcotest.(check bool) "recovery begin/end" true
    (has (function Trace.Recovery_begin -> true | _ -> false)
    && has (function Trace.Recovery_end -> true | _ -> false));
  Alcotest.(check bool) "resolve" true
    (has (function Trace.Resolve _ -> true | _ -> false));
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped t)

let test_chrome_export_parses_back () =
  let t = run_crashy_workload () in
  let entries = Trace.entries t in
  let json = Trace.to_chrome_json entries in
  let reparsed = Json.of_string (Json.to_string json) in
  Alcotest.(check bool) "export round-trips through the parser" true
    (reparsed = json);
  let evs = Json.to_list (Json.path [ "traceEvents" ] reparsed) in
  (* metadata (process + 3 threads) + one record per entry *)
  Alcotest.(check int) "one record per entry plus metadata"
    (List.length entries + 4) (List.length evs);
  Alcotest.(check bool) "B/E and instant phases present" true
    (let phs = List.map (fun e -> Json.to_str (Json.member "ph" e)) evs in
     List.mem "B" phs && List.mem "E" phs && List.mem "i" phs);
  (* the Json satellite accessors work on the export *)
  let some_mem =
    List.find
      (fun e ->
        Json.member "cat" e = Json.String "mem"
        && Json.member "args" e <> Json.Null)
      evs
  in
  Alcotest.(check bool) "to_bool reads the dirty flag" true
    (match Json.path [ "args"; "dirty" ] some_mem with
    | Json.Bool _ as b -> Json.to_bool b || true
    | _ -> false)

let test_timeline_pp () =
  let t = run_crashy_workload () in
  let s = Format.asprintf "%a" Trace.pp_timeline (Trace.entries t) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "timeline mentions %S" needle) true
        (contains s needle))
    [ "CRASH"; "recovery begin"; "recovery end"; "resolve ->"; "flush"; "t0"; "t1"; "sys" ]

let test_native_counted_hook () =
  let module M = Dssq_memory.Native.Counted () in
  let c = M.alloc 0 in
  let t = Trace.start () in
  Trace.set_tid 0;
  M.write c 1;
  ignore (M.read c);
  ignore (M.cas c ~expected:1 ~desired:2);
  Trace.stop ();
  let mems =
    List.filter_map
      (function Trace.Mem { op; cell; _ } -> Some (op, cell) | _ -> None)
      (events t)
  in
  Alcotest.(check bool) "native ops traced (anonymous cells)" true
    (List.mem (`Write, -1) mems
    && List.mem (`Read, -1) mems
    && List.mem (`Cas, -1) mems);
  (* stop() must detach the hook: further ops emit nothing *)
  M.write c 3;
  Alcotest.(check int) "hook detached on stop" (List.length mems)
    (List.length
       (List.filter
          (function Trace.Mem _ -> true | _ -> false)
          (events t)))

let test_lincheck_counterexample_carries_trace () =
  (* A forced violation: a completed dequeue returned a value that was
     never enqueued. *)
  let spec = Specs.Queue.spec () in
  let make_history () =
    let rec_ = Recorder.create () in
    ignore
      (Recorder.record rec_ ~tid:0 Specs.Queue.Dequeue (fun () ->
           Specs.Queue.Value 5));
    Recorder.history rec_
  in
  (* Without a tracer the counterexample is bare. *)
  (match Lincheck.check spec (make_history ()) with
  | Lincheck.Not_linearizable [] -> ()
  | Lincheck.Not_linearizable _ -> Alcotest.fail "expected an empty trace"
  | Lincheck.Linearizable _ -> Alcotest.fail "expected a violation");
  (* Under a tracer the recorded events ride along and are printed. *)
  let t = Trace.start () in
  Trace.set_tid 0;
  Trace.op_begin "dequeue" ~args:"";
  Dssq_memory.Persist_event.(
    emit Read ~tid:0 ~cell:3 ~name:"head" ~line:1 ~dirty:false);
  Trace.op_end "dequeue" ~result:"5";
  let verdict = Lincheck.check spec (make_history ()) in
  Trace.stop ();
  ignore t;
  match verdict with
  | Lincheck.Linearizable _ -> Alcotest.fail "expected a violation"
  | Lincheck.Not_linearizable trace ->
      Alcotest.(check int) "carries the recorded events" 3 (List.length trace);
      let s = Format.asprintf "%a" (Lincheck.pp_verdict spec.Spec.pp_op) verdict in
      Alcotest.(check bool) "verdict text" true (contains s "NOT linearizable");
      Alcotest.(check bool) "timeline printed with the verdict" true
        (contains s "begin dequeue" && contains s "read  head#3")

(* Cell names are computed when read: a tracer started only after the
   whole system was built (objects, WAL, root directory) still sees
   every cell under its allocation-time name. *)
let test_late_subscriber_sees_names () =
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let module Q = Dssq_core.Dss_queue.Make (M) in
  let module Sys = Dssq_core.Recovery.Make (M) in
  let sys = Sys.create ~nthreads:2 ~wal_lane_capacity:8 ~root_capacity:2 () in
  let q =
    Q.create ~wal:(Sys.wal sys) ~pool_id:(Sys.fresh_pool_id sys)
      ~reclaim:false ~nthreads:2 ~capacity:4 ()
  in
  ignore (Sys.register sys ~name:"queue" (fun () -> Q.recover q) : int);
  Alcotest.(check bool) "nothing subscribed while building" false
    (Dssq_memory.Persist_event.is_on ());
  let enq () =
    Q.prep_enqueue q ~tid:0 7;
    Q.exec_enqueue q ~tid:0
  in
  let deq () =
    Q.prep_dequeue q ~tid:1;
    ignore (Q.exec_dequeue q ~tid:1)
  in
  let _, entries =
    Trace.capture (fun () -> Sim.run heap ~threads:[ enq; deq ])
  in
  let names =
    List.filter_map
      (fun (e : Trace.entry) ->
        match e.Trace.event with
        | Trace.Mem { cell_name; _ } -> Some cell_name
        | _ -> None)
      entries
  in
  let starts p n =
    String.length n >= String.length p
    && String.sub n 0 (String.length p) = p
  in
  let seen what p =
    Alcotest.(check bool) what true (List.exists p names)
  in
  seen "node<i>[j]" (fun n -> starts "node" n && contains n "[");
  seen "X[i]" (fun n -> n = "X[0]" || n = "X[1]");
  seen "head" (String.equal "head");
  seen "tail" (String.equal "tail");
  seen "wal[i][j]" (fun n -> starts "wal[" n && contains n "][")

let suite =
  [
    Alcotest.test_case "tracing off is a no-op" `Quick test_off_is_noop;
    Alcotest.test_case "ring buffer drops oldest, counts drops" `Quick
      test_ring_drop_oldest;
    Alcotest.test_case "rings are per-thread" `Quick test_per_thread_rings;
    Alcotest.test_case "heap emission and crash verdicts" `Quick
      test_heap_emission_and_crash_verdicts;
    Alcotest.test_case "crash workload covers every event kind" `Quick
      test_workload_covers_every_kind;
    Alcotest.test_case "chrome export parses back" `Quick
      test_chrome_export_parses_back;
    Alcotest.test_case "timeline rendering" `Quick test_timeline_pp;
    Alcotest.test_case "native Counted hook" `Quick test_native_counted_hook;
    Alcotest.test_case "lincheck counterexample carries the trace" `Quick
      test_lincheck_counterexample_carries_trace;
    Alcotest.test_case "a late subscriber still sees cell names" `Quick
      test_late_subscriber_sees_names;
  ]
