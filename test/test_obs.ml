(** Tests for the observability layer: log-bucketed histograms (QCheck
    properties), the hand-rolled JSON codec, the metrics registry, the
    schema-versioned run report round-trip, and the memory-event
    accounting of the instrumented sim harness. *)

module Histogram = Dssq_obs.Histogram
module Json = Dssq_obs.Json
module Metrics = Dssq_obs.Metrics
module Run_report = Dssq_obs.Run_report
module MI = Dssq_memory.Memory_intf
module Sim_throughput = Dssq_workload.Sim_throughput

(* ------------------------- histogram properties ----------------------- *)

let arb_values =
  QCheck.(list_of_size (Gen.int_range 1 200) (float_range 0.5 1e7))

let hist_of values =
  let h = Histogram.create () in
  List.iter (Histogram.add h) values;
  h

let prop_total =
  QCheck.Test.make ~count:200 ~name:"histogram total = number of adds"
    arb_values (fun vs -> Histogram.total (hist_of vs) = List.length vs)

let prop_sum_min_max_exact =
  QCheck.Test.make ~count:200 ~name:"histogram sum/min/max are exact"
    arb_values (fun vs ->
      let h = hist_of vs in
      let sum = List.fold_left ( +. ) 0. vs in
      Float.abs (Histogram.sum h -. sum) <= 1e-6 *. Float.max 1. sum
      && Histogram.min_value h = List.fold_left Float.min infinity vs
      && Histogram.max_value h = List.fold_left Float.max neg_infinity vs)

let prop_quantile_bounds =
  QCheck.Test.make ~count:200 ~name:"quantiles stay within [min, max]"
    QCheck.(pair arb_values (float_range 0. 1.))
    (fun (vs, q) ->
      let h = hist_of vs in
      let v = Histogram.quantile h q in
      Histogram.min_value h <= v && v <= Histogram.max_value h)

let prop_quantile_monotone =
  QCheck.Test.make ~count:200 ~name:"quantiles are monotone in q" arb_values
    (fun vs ->
      let h = hist_of vs in
      Histogram.p50 h <= Histogram.p90 h && Histogram.p90 h <= Histogram.p99 h)

let prop_merge_totals =
  QCheck.Test.make ~count:200 ~name:"merge sums totals and preserves extrema"
    QCheck.(pair arb_values arb_values)
    (fun (a, b) ->
      let m = Histogram.merge (hist_of a) (hist_of b) in
      Histogram.total m = List.length a + List.length b
      && Histogram.min_value m
         = Float.min
             (Histogram.min_value (hist_of a))
             (Histogram.min_value (hist_of b))
      && Histogram.max_value m
         = Float.max
             (Histogram.max_value (hist_of a))
             (Histogram.max_value (hist_of b)))

let prop_histogram_json_roundtrip =
  QCheck.Test.make ~count:200 ~name:"histogram JSON round-trip" arb_values
    (fun vs ->
      let h = hist_of vs in
      Histogram.equal h
        (Histogram.of_json (Json.of_string (Json.to_string (Histogram.to_json h)))))

let test_histogram_basics () =
  let h = Histogram.create () in
  Alcotest.(check bool) "empty mean is nan" true (Float.is_nan (Histogram.mean h));
  List.iter (Histogram.add h) [ 10.; 20.; 30.; 40. ];
  Alcotest.(check int) "total" 4 (Histogram.total h);
  Alcotest.(check (float 1e-9)) "mean" 25. (Histogram.mean h);
  Alcotest.check_raises "gamma <= 1 rejected"
    (Invalid_argument "Histogram.create: gamma must be > 1") (fun () ->
      ignore (Histogram.create ~gamma:1. ()));
  Alcotest.check_raises "merge gamma mismatch"
    (Invalid_argument "Histogram.merge: gamma mismatch") (fun () ->
      ignore (Histogram.merge h (Histogram.create ~gamma:2. ())))

(* Regression: pp_bars with a non-positive width used to render empty
   bars; the width is now clamped to at least one column. *)
let test_pp_bars_width_clamp () =
  let h = hist_of [ 1.; 10.; 10.; 1000. ] in
  let render w = Format.asprintf "%a" (Histogram.pp_bars ~width:w) h in
  List.iter
    (fun w ->
      let lines =
        List.filter (fun l -> l <> "") (String.split_on_char '\n' (render w))
      in
      Alcotest.(check bool)
        (Printf.sprintf "width %d still draws every bar" w)
        true
        (lines <> [] && List.for_all (fun l -> String.contains l '#') lines))
    [ 0; -3; 1; 40 ]

(* ------------------------------- JSON --------------------------------- *)

let test_json_roundtrip () =
  let j =
    Json.Obj
      [
        ("i", Json.Int 42);
        ("neg", Json.Int (-7));
        ("f", Json.Float 3.25);
        ("tiny", Json.Float 1.2345678901234567e-12);
        ("nan", Json.Float Float.nan);
        ("s", Json.String "with \"quotes\" and \n newline and \xc3\xa9");
        ("l", Json.List [ Json.Bool true; Json.Null; Json.Int 0 ]);
        ("empty_obj", Json.Obj []);
        ("empty_list", Json.List []);
      ]
  in
  let expect =
    (* nan encodes as null, everything else round-trips structurally *)
    Json.Obj
      (List.map
         (fun (k, v) -> if k = "nan" then (k, Json.Null) else (k, v))
         (match j with Json.Obj l -> l | _ -> assert false))
  in
  let reparsed = Json.of_string (Json.to_string j) in
  Alcotest.(check bool) "round-trip (indent)" true (reparsed = expect);
  let reparsed = Json.of_string (Json.to_string ~indent:false j) in
  Alcotest.(check bool) "round-trip (compact)" true (reparsed = expect);
  (* Integer-written numbers stay Int; float-written stay Float. *)
  Alcotest.(check bool) "int stays int" true (Json.of_string "17" = Json.Int 17);
  Alcotest.(check bool)
    "float stays float" true
    (Json.of_string "17.5" = Json.Float 17.5)

let prop_json_bool_roundtrip =
  QCheck.Test.make ~count:100 ~name:"to_bool round-trips through the codec"
    QCheck.bool (fun b ->
      Json.to_bool (Json.of_string (Json.to_string (Json.Bool b))) = b)

let arb_keys =
  QCheck.(list_of_size (Gen.int_range 0 6) (string_of_size (Gen.int_range 1 5)))

let prop_json_path =
  QCheck.Test.make ~count:200
    ~name:"path descends nested objects through the codec"
    QCheck.(pair arb_keys small_int)
    (fun (keys, v) ->
      let nested =
        List.fold_right (fun k acc -> Json.Obj [ (k, acc) ]) keys (Json.Int v)
      in
      let reparsed = Json.of_string (Json.to_string nested) in
      Json.to_int (Json.path keys reparsed) = v
      (* one step past the leaf is Null, not an exception *)
      && Json.path (keys @ [ "absent" ]) reparsed = Json.Null)

let test_json_errors () =
  let fails s =
    match Json.of_string s with
    | exception Json.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "truncated object" true (fails "{\"a\": 1");
  Alcotest.(check bool) "bare word" true (fails "flush");
  Alcotest.(check bool) "trailing garbage" true (fails "42 oops");
  Alcotest.(check bool) "unterminated string" true (fails "\"abc")

(* ------------------------------ metrics ------------------------------- *)

let test_metrics () =
  Metrics.reset ();
  let c = Metrics.counter "test.ops" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  Alcotest.(check int) "counter" 5 (Metrics.get c);
  let g = Metrics.gauge "test.depth" in
  Metrics.set g 17;
  Alcotest.(check int) "gauge" 17 (Metrics.get g);
  Alcotest.(check bool)
    "snapshot contains both" true
    (List.mem ("test.ops", 5) (Metrics.snapshot ())
    && List.mem ("test.depth", 17) (Metrics.snapshot ()));
  Alcotest.(check bool)
    "registration is idempotent" true
    (Metrics.get (Metrics.counter "test.ops") = 5);
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Metrics: \"test.ops\" already registered with another kind")
    (fun () -> ignore (Metrics.gauge "test.ops"));
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Metrics.get c)

(* Snapshot isolation: a report built from [delta_since] must see only
   its own run's counter increases, even when earlier runs in the same
   process already bumped the registry. *)
let test_metrics_mark_delta () =
  Metrics.reset ();
  let c = Metrics.counter "test.delta.ops" in
  let g = Metrics.gauge "test.delta.depth" in
  Metrics.incr ~by:3 c;
  Metrics.set g 5;
  let marked = Metrics.mark () in
  Metrics.incr ~by:4 c;
  Metrics.set g 9;
  let d = Metrics.delta_since marked in
  Alcotest.(check (option int))
    "counter reports the delta" (Some 4)
    (List.assoc_opt "test.delta.ops" d);
  Alcotest.(check (option int))
    "gauge passes through at its level" (Some 9)
    (List.assoc_opt "test.delta.depth" d);
  let late = Metrics.counter "test.delta.late" in
  Metrics.incr ~by:2 late;
  Alcotest.(check (option int))
    "post-mark registration reports its full value" (Some 2)
    (List.assoc_opt "test.delta.late" (Metrics.delta_since marked));
  Metrics.reset ()

(* ----------------------------- run report ----------------------------- *)

let sample_report () =
  let hist = hist_of [ 120.; 450.; 800.; 1600.; 90. ] in
  let events =
    {
      MI.reads = 10;
      writes = 4;
      cases = 3;
      pwrites = 6;
      flushes = 7;
      elided_flushes = 5;
      coalesced_flushes = 6;
      fences = 2;
      elided_fences = 1;
    }
  in
  let point =
    Run_report.point_of_samples ~x:2
      [
        { Run_report.mops = 1.25; ops = 100; events; latency = Some hist };
        { Run_report.mops = 1.5; ops = 110; events; latency = Some hist };
      ]
  in
  Run_report.make ~git_rev:"deadbeef" ~backend:"sim" ~experiment:"unit-test"
    ~x_label:"threads" ~y_label:"Mops/s"
    ~params:[ ("repeats", "2") ]
    ~metrics:[ ("obs.reports_written", 3) ]
    ~provenance:
      [ ("line_size", "8"); ("policy", "coalesced"); ("threads", "2") ]
    [
      { Run_report.label = "dss-det"; points = [ point ] };
      { Run_report.label = "ms"; points = [] };
    ]

let test_report_roundtrip () =
  let r = sample_report () in
  let r' = Run_report.of_string (Run_report.to_string r) in
  Alcotest.(check bool) "round-trip preserves the report" true
    (Run_report.equal r r');
  (* point_of_samples merged the repeats *)
  let p = List.hd (List.hd r.Run_report.series).Run_report.points in
  Alcotest.(check int) "ops summed" 210 p.Run_report.ops;
  Alcotest.(check int) "events summed" 14 p.Run_report.events.MI.flushes;
  Alcotest.(check int) "histograms merged" 10
    (Histogram.total (Option.get p.Run_report.latency))

let test_report_file_roundtrip () =
  let file = Filename.temp_file "dssq-report" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let r = sample_report () in
      Run_report.write file r;
      Alcotest.(check bool) "file round-trip" true
        (Run_report.equal r (Run_report.read file)))

let test_report_rejects_foreign () =
  let r = sample_report () in
  let reject patch =
    let j = Run_report.to_json r in
    let patched =
      Json.Obj
        (List.map
           (fun (k, v) -> match patch k with Some v' -> (k, v') | None -> (k, v))
           (Json.to_obj j))
    in
    match Run_report.of_json patched with
    | exception Json.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "foreign schema rejected" true
    (reject (function "schema" -> Some (Json.String "other.schema") | _ -> None));
  Alcotest.(check bool) "newer version rejected" true
    (reject (function
      | "version" -> Some (Json.Int (Run_report.schema_version + 1))
      | _ -> None));
  Alcotest.(check bool) "current version accepted" true (not (reject (fun _ -> None)))

(* Older schema versions predate some keys — v1 lacks [elided_flushes]
   (added in v2), v2 lacks [coalesced_flushes] and [elided_fences]
   (added in v3), v3 lacks [pwrites] (added in v4), and everything
   before v5 lacks the top-level [provenance] map.  All must still
   decode: missing event keys read as zero, missing provenance as the
   empty map. *)
let report_as_version version ~without =
  let without = if version < 5 then "provenance" :: without else without in
  let strip j =
    let rec go = function
      | Json.Obj kvs ->
          Json.Obj
            (List.filter_map
               (fun (k, v) ->
                 if List.mem k without then None else Some (k, go v))
               kvs)
      | Json.List l -> Json.List (List.map go l)
      | j -> j
    in
    go j
  in
  Run_report.of_json
    (Json.Obj
       (List.filter_map
          (fun (k, v) ->
            if List.mem k without then None
            else if k = "version" then Some (k, Json.Int version)
            else Some (k, strip v))
          (Json.to_obj (Run_report.to_json (sample_report ())))))

let check_old_version version ~without =
  let r = report_as_version version ~without in
  Alcotest.(check int)
    (Printf.sprintf "v%d version kept" version)
    version r.Run_report.version;
  let p = List.hd (List.hd r.Run_report.series).Run_report.points in
  let read = function
    | "elided_flushes" -> p.Run_report.events.MI.elided_flushes
    | "coalesced_flushes" -> p.Run_report.events.MI.coalesced_flushes
    | "elided_fences" -> p.Run_report.events.MI.elided_fences
    | "pwrites" -> p.Run_report.events.MI.pwrites
    | k -> Alcotest.failf "unexpected stripped key %s" k
  in
  List.iter
    (fun k ->
      Alcotest.(check int) (Printf.sprintf "missing %s reads as 0" k) 0 (read k))
    without;
  Alcotest.(check bool) "pre-v5 provenance reads as empty" true
    (r.Run_report.provenance = []);
  Alcotest.(check int) "other counters intact" 14
    p.Run_report.events.MI.flushes

let test_report_decodes_v1 () =
  check_old_version 1
    ~without:
      [ "elided_flushes"; "coalesced_flushes"; "elided_fences"; "pwrites" ]

let test_report_decodes_v2 () =
  check_old_version 2
    ~without:[ "coalesced_flushes"; "elided_fences"; "pwrites" ]

let test_report_decodes_v3 () = check_old_version 3 ~without:[ "pwrites" ]
let test_report_decodes_v4 () = check_old_version 4 ~without:[]

let test_report_provenance_roundtrip () =
  let r = sample_report () in
  let r' = Run_report.of_string (Run_report.to_string r) in
  Alcotest.(check bool) "v5 provenance survives the codec" true
    (r'.Run_report.provenance = r.Run_report.provenance
    && r'.Run_report.provenance <> [])

(* ----------------------- memory-event accounting ---------------------- *)

(* The observable cost hierarchy the paper is about: the persistent
   detectable queue must flush strictly more per operation than the
   volatile MS queue (which never flushes). *)
let test_flushes_per_op_ordering () =
  let run mk det_pct =
    Sim_throughput.measure ~horizon_ns:50_000. ~instrument:true ~mk ~det_pct
      ~nthreads:2 ()
  in
  let dss = run "dss-queue" 100 in
  let ms = run "ms-queue" 0 in
  let per_op (s : Run_report.sample) =
    float_of_int s.Run_report.events.MI.flushes /. float_of_int s.Run_report.ops
  in
  Alcotest.(check bool) "dss completed ops" true (dss.Run_report.ops > 0);
  Alcotest.(check bool) "ms completed ops" true (ms.Run_report.ops > 0);
  Alcotest.(check bool)
    (Printf.sprintf "dss flushes/op (%.2f) > ms flushes/op (%.2f)" (per_op dss)
       (per_op ms))
    true
    (per_op dss > per_op ms);
  Alcotest.(check bool) "dss CAS measured" true
    (dss.Run_report.events.MI.cases > 0)

let test_instrumented_latency () =
  let s =
    Sim_throughput.measure ~horizon_ns:50_000. ~instrument:true
      ~mk:"dss-queue" ~nthreads:2 ()
  in
  let h = Option.get s.Run_report.latency in
  Alcotest.(check bool) "one latency sample per op" true
    (Histogram.total h = s.Run_report.ops);
  Alcotest.(check bool) "latencies are positive" true (Histogram.min_value h > 0.)

let test_instrumentation_does_not_change_throughput () =
  (* Zero-cost-when-disabled, and in the deterministic model the event
     sequence must be identical either way. *)
  let run instrument =
    (Sim_throughput.measure ~seed:7 ~horizon_ns:50_000. ~instrument
       ~mk:"dss-queue" ~nthreads:3 ())
      .Run_report.mops
  in
  Alcotest.(check (float 1e-12)) "same simulated throughput" (run false)
    (run true)

let test_native_instrumented_smoke () =
  let s =
    Dssq_workload.Native_throughput.measure ~instrument:true ~mk:"dss-queue"
      ~nthreads:2 ~duration:0.05 ()
  in
  Alcotest.(check bool) "ops counted" true (s.Run_report.ops > 0);
  Alcotest.(check bool) "flushes counted" true
    (s.Run_report.events.MI.flushes > 0);
  Alcotest.(check bool) "latency recorded" true
    (Histogram.total (Option.get s.Run_report.latency) > 0)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_total;
      prop_sum_min_max_exact;
      prop_quantile_bounds;
      prop_quantile_monotone;
      prop_merge_totals;
      prop_histogram_json_roundtrip;
      prop_json_bool_roundtrip;
      prop_json_path;
    ]
  @ [
      Alcotest.test_case "histogram basics" `Quick test_histogram_basics;
      Alcotest.test_case "pp_bars clamps non-positive widths" `Quick
        test_pp_bars_width_clamp;
      Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
      Alcotest.test_case "json parse errors" `Quick test_json_errors;
      Alcotest.test_case "metrics registry" `Quick test_metrics;
      Alcotest.test_case "metrics mark/delta isolation" `Quick
        test_metrics_mark_delta;
      Alcotest.test_case "run report round-trip" `Quick test_report_roundtrip;
      Alcotest.test_case "run report file round-trip" `Quick
        test_report_file_roundtrip;
      Alcotest.test_case "run report schema guards" `Quick
        test_report_rejects_foreign;
      Alcotest.test_case "run report decodes schema v1" `Quick
        test_report_decodes_v1;
      Alcotest.test_case "run report decodes schema v2" `Quick
        test_report_decodes_v2;
      Alcotest.test_case "run report decodes schema v3" `Quick
        test_report_decodes_v3;
      Alcotest.test_case "run report decodes schema v4" `Quick
        test_report_decodes_v4;
      Alcotest.test_case "run report v5 provenance round-trip" `Quick
        test_report_provenance_roundtrip;
      Alcotest.test_case "flushes/op: dss > ms" `Quick
        test_flushes_per_op_ordering;
      Alcotest.test_case "instrumented sim latency" `Quick
        test_instrumented_latency;
      Alcotest.test_case "instrumentation is transparent" `Quick
        test_instrumentation_does_not_change_throughput;
      Alcotest.test_case "native instrumented smoke" `Quick
        test_native_instrumented_smoke;
    ]
