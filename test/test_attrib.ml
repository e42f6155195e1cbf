(** Attribution-grade profiling: the persistence heatmap's aggregation
    invariants (QCheck), the Prometheus exporter's escaping round-trip,
    and the end-to-end accounting identities the `dssq profile` tables
    rest on — per-phase and per-line event sums equal to the backend
    counter deltas across the whole zoo, and event streams bit-identical
    with profiling on or off. *)

module Heatmap = Dssq_obs.Heatmap
module Profile = Dssq_obs.Profile
module Prom = Dssq_obs.Prom
module Zoo = Dssq_workload.Zoo
module MI = Dssq_memory.Memory_intf
module PE = Dssq_memory.Persist_event

(* --------------------------- heatmap invariants ----------------------- *)

let emit ?(name = "") kind ~line =
  PE.emit kind ~tid:0 ~cell:(-1) ~name ~line ~dirty:false

(* Index-coded events so QCheck can print counterexamples. *)
let line_events =
  PE.[| Write; Flush Written_back; Flush Elided; Flush Coalesced;
        Verdict true; Verdict false |]

let prop_heatmap_sums =
  QCheck.Test.make ~count:200
    ~name:"heatmap: per-line sums equal the event totals"
    QCheck.(
      list_of_size (Gen.int_range 0 200)
        (pair (int_range 0 8) (int_range 0 (Array.length line_events - 1))))
    (fun evs ->
      Heatmap.reset ();
      Heatmap.start ();
      (* every verdict closes its own crash: within one crash the
         heatmap counts a line's verdict once *)
      List.iter
        (fun (line, i) ->
          emit line_events.(i) ~line;
          if i >= 4 then emit Crashed ~line:(-1))
        evs;
      Heatmap.stop ();
      let rows = Heatmap.rows () in
      let sum f = List.fold_left (fun acc r -> acc + f r) 0 rows in
      let count i = List.length (List.filter (fun (_, j) -> j = i) evs) in
      sum (fun r -> r.Heatmap.h_writes) = count 0
      && sum (fun r -> r.Heatmap.h_flushes) = count 1
      && sum (fun r -> r.Heatmap.h_elides) = count 2
      && sum (fun r -> r.Heatmap.h_coalesces) = count 3
      && sum (fun r -> r.Heatmap.h_evicts) = count 4
      && sum (fun r -> r.Heatmap.h_drops) = count 5)

let test_heatmap_labels () =
  Heatmap.reset ();
  Heatmap.start ();
  emit Alloc ~line:3 ~name:"";
  emit Alloc ~line:3 ~name:"queue.head";
  emit Alloc ~line:3 ~name:"later-loser";
  emit Write ~line:3;
  (* fences count nothing and negative lines have no identity: both are
     ignored rather than aggregated *)
  emit (Fence 0) ~line:3;
  emit (Flush Written_back) ~line:(-1);
  (* one crash dropping two cells of line 3 is one dropped line *)
  emit (Verdict false) ~line:3;
  emit (Verdict false) ~line:3;
  emit Crashed ~line:(-1);
  Heatmap.stop ();
  (match Heatmap.rows () with
  | [ r ] ->
      Alcotest.(check string)
        "first non-empty name wins" "queue.head" r.Heatmap.h_label;
      Alcotest.(check string) "bucketed by owner" "queue" r.Heatmap.h_object;
      Alcotest.(check int) "one write" 1 r.Heatmap.h_writes;
      Alcotest.(check int) "fence not aggregated" 0 r.Heatmap.h_flushes;
      Alcotest.(check int) "one verdict per line per crash" 1 r.Heatmap.h_drops
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows));
  Alcotest.(check string) "bucket strips index" "ann" (Heatmap.bucket "ann[0]");
  Alcotest.(check string) "bucket of empty label" "?" (Heatmap.bucket "");
  (* reset_counts keeps the allocation-site labels (the
     post-construction measurement-window reset) *)
  Heatmap.start ();
  Heatmap.reset_counts ();
  emit (Flush Written_back) ~line:3;
  Heatmap.stop ();
  match List.filter (fun r -> r.Heatmap.h_line = 3) (Heatmap.rows ()) with
  | [ r ] ->
      Alcotest.(check string) "label survives" "queue.head" r.Heatmap.h_label;
      Alcotest.(check int) "counts were zeroed" 0 r.Heatmap.h_writes;
      Alcotest.(check int) "new window counts" 1 r.Heatmap.h_flushes;
      Heatmap.reset ()
  | rows -> Alcotest.failf "expected line 3, got %d rows" (List.length rows)

let test_heatmap_off_is_noop () =
  Heatmap.reset ();
  emit Write ~line:1;
  emit Alloc ~line:1 ~name:"ghost";
  Alcotest.(check int) "nothing aggregated while off" 0
    (List.length (Heatmap.rows ()))

let test_heatmap_top_ranking () =
  let mk line flushes writes =
    {
      Heatmap.h_line = line;
      h_label = "";
      h_object = "?";
      h_writes = writes;
      h_flushes = flushes;
      h_elides = 0;
      h_coalesces = 0;
      h_evicts = 0;
      h_drops = 0;
    }
  in
  let rows = [ mk 1 2 9; mk 2 5 0; mk 3 2 1; mk 4 0 50 ] in
  Alcotest.(check (list int))
    "flushes desc, writes break ties" [ 2; 1; 3 ]
    (List.map
       (fun r -> r.Heatmap.h_line)
       (Heatmap.top ~n:3 rows))

(* ------------------------ Prometheus exporter ------------------------- *)

let prop_prom_escape_roundtrip =
  QCheck.Test.make ~count:500 ~name:"prom: label escaping round-trips"
    QCheck.string (fun s -> Prom.unescape_label (Prom.escape_label s) = s)

let test_prom_rendering () =
  Alcotest.(check string)
    "dotted names flatten" "dssq_heap_flushes"
    (Prom.sanitize_name "dssq.heap.flushes");
  Alcotest.(check string)
    "sample line" "flushes{site=\"q.head \\\"hot\\\"\"} 128"
    (Prom.sample_to_string
       {
         Prom.s_name = "flushes";
         s_labels = [ ("site", "q.head \"hot\"") ];
         s_value = 128.;
       });
  Alcotest.(check string)
    "integers render without exponent" "1234567890"
    (Prom.sample_to_string
       { Prom.s_name = "x"; s_labels = []; s_value = 1234567890. }
       |> String.split_on_char ' ' |> List.tl |> List.hd);
  (* unknown escapes keep their backslash, per Prometheus parsers *)
  Alcotest.(check string) "unknown escape kept" "\\q" (Prom.unescape_label "\\q")

(* -------------------- end-to-end accounting identities ----------------- *)

let counters_of (p : Zoo.profile) = p.Zoo.p_row.Zoo.z_events

let phase_sum f (p : Zoo.profile) =
  List.fold_left
    (fun acc (ph : Profile.phase_row) -> acc + f ph)
    0 p.Zoo.p_phases

let heat_sum f (p : Zoo.profile) =
  List.fold_left (fun acc r -> acc + f r) 0 p.Zoo.p_heat

(* The identity the whole attribution rests on: for every zoo object,
   per-phase event counts and per-line heatmap counts each sum exactly
   to the backend's counter deltas — nothing double-counted, nothing
   unattributed. *)
let check_attribution_sums ~ctx (p : Zoo.profile) =
  let c = counters_of p in
  let chk what a b =
    Alcotest.(check int) (Printf.sprintf "%s: %s" ctx what) b a
  in
  chk "phase pwrites" (phase_sum (fun r -> r.Profile.ph_pwrites) p) c.MI.pwrites;
  chk "phase flushes" (phase_sum (fun r -> r.Profile.ph_flushes) p) c.MI.flushes;
  chk "phase elided"
    (phase_sum (fun r -> r.Profile.ph_elides) p)
    c.MI.elided_flushes;
  chk "phase coalesced"
    (phase_sum (fun r -> r.Profile.ph_coalesces) p)
    c.MI.coalesced_flushes;
  chk "phase fences" (phase_sum (fun r -> r.Profile.ph_fences) p) c.MI.fences;
  chk "phase elided fences"
    (phase_sum (fun r -> r.Profile.ph_elided_fences) p)
    c.MI.elided_fences;
  chk "heatmap writes" (heat_sum (fun r -> r.Heatmap.h_writes) p) c.MI.pwrites;
  chk "heatmap flushes" (heat_sum (fun r -> r.Heatmap.h_flushes) p) c.MI.flushes;
  chk "heatmap elided"
    (heat_sum (fun r -> r.Heatmap.h_elides) p)
    c.MI.elided_flushes;
  chk "heatmap coalesced"
    (heat_sum (fun r -> r.Heatmap.h_coalesces) p)
    c.MI.coalesced_flushes

let test_zoo_attribution_sums () =
  List.iter
    (fun name ->
      check_attribution_sums ~ctx:name (Zoo.profile_one ~pairs:40 name))
    Zoo.objects

let test_zoo_attribution_sums_crash () =
  List.iter
    (fun name ->
      let p = Zoo.profile_one ~pairs:40 ~crash:true name in
      check_attribution_sums ~ctx:(name ^ "+crash") p;
      (* the crash arm must put work into the recovery phases *)
      let recovery_spans =
        List.fold_left
          (fun acc (r : Profile.phase_row) ->
            if r.Profile.ph_phase = "recovery-scan" then acc + r.Profile.ph_ops
            else acc)
          0 p.Zoo.p_phases
      in
      Alcotest.(check bool)
        (name ^ ": recovery-scan spans recorded")
        true (recovery_spans > 0))
    Zoo.objects

let test_zoo_attribution_sums_coalesce () =
  List.iter
    (fun name ->
      check_attribution_sums ~ctx:(name ^ "+co")
        (Zoo.profile_one ~pairs:40 ~line_size:8 ~policy:Coalesced name))
    Zoo.objects

let test_native_attribution_sums () =
  List.iter
    (fun name ->
      check_attribution_sums ~ctx:(name ^ "@native")
        (Zoo.profile_one_native ~pairs:40 name))
    Zoo.objects;
  check_attribution_sums ~ctx:"dss-queue@native+co"
    (Zoo.profile_one_native ~pairs:40 ~policy:Coalesced "dss-queue")

(* Profiling must not perturb what it measures: with the aggregators
   detached, the same deterministic workload produces bit-identical
   counter deltas (this is the profiling-off anchor guarantee — the
   fig5a flushes/op constant cannot move when profiling is off). *)
let test_profiling_transparent () =
  List.iter
    (fun name ->
      let plain = Zoo.run_one ~pairs:40 name in
      let profiled = Zoo.profile_one ~pairs:40 name in
      Alcotest.(check bool)
        (name ^ ": counters identical with profiling on")
        true
        (plain.Zoo.z_events = profiled.Zoo.p_row.Zoo.z_events);
      Alcotest.(check int)
        (name ^ ": same ops")
        plain.Zoo.z_ops profiled.Zoo.p_row.Zoo.z_ops)
    Zoo.objects;
  (* and the aggregators are really off again afterwards *)
  Alcotest.(check bool) "heatmap off" false (Heatmap.is_on ());
  Alcotest.(check bool) "profiler off" false (Profile.is_on ())

(* Both zoo entry points build the heap from the same policy, so they
   count the same events under each — a policy dropped on one path shows
   as eager counts there. *)
let test_policy_reaches_both_paths () =
  List.iter
    (fun policy ->
      List.iter
        (fun name ->
          let ctx =
            Printf.sprintf "%s/%s" name
              (MI.Policy.to_string policy)
          in
          let plain = Zoo.run_one ~pairs:40 ~policy name in
          let profiled = Zoo.profile_one ~pairs:40 ~policy name in
          Alcotest.(check bool)
            (ctx ^ ": run_one = profile_one")
            true
            (plain.Zoo.z_events = profiled.Zoo.p_row.Zoo.z_events))
        [ "dss-queue"; "dss-stack"; "dss-swap" ])
    MI.Policy.all

let test_profile_heat_labeled () =
  (* Attribution is only useful if the hot lines carry names: the
     queue's heatmap must label its announce and head lines. *)
  let p = Zoo.profile_one ~pairs:40 "dss-queue" in
  let labels =
    List.filter_map
      (fun r -> if r.Heatmap.h_label = "" then None else Some r.Heatmap.h_label)
      p.Zoo.p_heat
  in
  Alcotest.(check bool) "some lines are labeled" true (labels <> []);
  Alcotest.(check bool)
    "head is labeled" true
    (List.exists (fun l -> l = "head") labels)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_heatmap_sums; prop_prom_escape_roundtrip ]
  @ [
      Alcotest.test_case "heatmap labels and buckets" `Quick
        test_heatmap_labels;
      Alcotest.test_case "heatmap off is a no-op" `Quick
        test_heatmap_off_is_noop;
      Alcotest.test_case "heatmap top ranking" `Quick test_heatmap_top_ranking;
      Alcotest.test_case "prometheus rendering" `Quick test_prom_rendering;
      Alcotest.test_case "zoo: per-phase/per-line sums = backend totals"
        `Quick test_zoo_attribution_sums;
      Alcotest.test_case "zoo: sums hold across crash + recovery" `Quick
        test_zoo_attribution_sums_crash;
      Alcotest.test_case "zoo: sums hold under coalescing" `Quick
        test_zoo_attribution_sums_coalesce;
      Alcotest.test_case "zoo: sums hold on the native backend" `Quick
        test_native_attribution_sums;
      Alcotest.test_case "profiling is transparent" `Quick
        test_profiling_transparent;
      Alcotest.test_case "zoo: run_one and profile_one agree per policy"
        `Quick test_policy_reaches_both_paths;
      Alcotest.test_case "heatmap lines carry allocation-site labels" `Quick
        test_profile_heat_labeled;
    ]
