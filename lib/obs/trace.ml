(** Event tracing with per-thread bounded ring buffers.

    Design notes (see DESIGN.md §7):
    - the active tracer is global, emission is [sink]-indirected, and the
      off state is a physically-distinguished no-op closure, so tracing
      costs one load + branch when disabled;
    - rings drop the {e oldest} entry on overflow and count drops: an
      attached tracer always holds the most recent window of each
      thread's activity, which is the part that explains a crash;
    - a single mutex serializes emission.  On the cooperative simulator
      there is no contention at all; on the native backend tracing is a
      debugging mode, not a measurement mode, so the lock is acceptable;
    - memory events come from the {!Dssq_memory.Persist_event} stream,
      which {!start} subscribes to; threads are still attributed by the
      tracer's own register ({!set_tid}). *)

module PE = Dssq_memory.Persist_event

type event =
  | Op_begin of { op : string; args : string }
  | Op_end of { op : string; result : string }
  | Mem of {
      op : [ `Read | `Write | `Cas | `Flush | `Fence ];
      cell : int;
      cell_name : string;
      line : int;
      dirty : bool;
    }
  | Crash of { verdicts : (int * string * bool) list }
  | Recovery_begin
  | Recovery_end
  | Resolve of { outcome : string }

type entry = { seq : int; ts_ns : float; tid : int; event : event }

type ring = {
  buf : entry array;
  mutable start : int; (* index of the oldest retained entry *)
  mutable len : int;
  mutable ring_dropped : int;
}

type t = {
  capacity : int;
  mutable rings : ring option array; (* index = tid + 1; grown on demand *)
  mutable seq : int;
  lock : Mutex.t;
  mutable verdicts : (int * string * bool) list;
      (* the crash in progress, newest first *)
}

let dummy_entry = { seq = 0; ts_ns = 0.; tid = -1; event = Recovery_begin }

(* Drops are also published as a registry metric so run reports carry
   them even when nobody kept the tracer handle around. *)
let dropped_metric = Metrics.counter "trace.dropped_events"

let ring_push r e =
  let cap = Array.length r.buf in
  if r.len < cap then begin
    r.buf.((r.start + r.len) mod cap) <- e;
    r.len <- r.len + 1
  end
  else begin
    r.buf.(r.start) <- e;
    r.start <- (r.start + 1) mod cap;
    r.ring_dropped <- r.ring_dropped + 1;
    Metrics.incr dropped_metric
  end

let ring_entries r =
  List.init r.len (fun i -> r.buf.((r.start + i) mod Array.length r.buf))

(* --------------------------- global tracer ---------------------------- *)

let noop : event -> unit = fun _ -> ()
let sink = ref noop
let active_tracer : t option ref = ref None
let cur_tid = ref (-1)

let is_on () = !sink != noop
let active () = !active_tracer
let set_tid tid = cur_tid := tid

let ring_for t tid =
  let idx = tid + 1 in
  if idx >= Array.length t.rings then begin
    let rings = Array.make (max (idx + 1) (2 * Array.length t.rings)) None in
    Array.blit t.rings 0 rings 0 (Array.length t.rings);
    t.rings <- rings
  end;
  match t.rings.(idx) with
  | Some r -> r
  | None ->
      let r =
        {
          buf = Array.make t.capacity dummy_entry;
          start = 0;
          len = 0;
          ring_dropped = 0;
        }
      in
      t.rings.(idx) <- Some r;
      r

let record t event =
  Mutex.lock t.lock;
  let seq = t.seq in
  t.seq <- seq + 1;
  let tid = !cur_tid in
  ring_push (ring_for t tid)
    { seq; ts_ns = Unix.gettimeofday () *. 1e9; tid; event };
  Mutex.unlock t.lock

(* Every flush call is a flush entry, and so is each write-back a drain
   actually performs; elided write-backs and the crash adversary's
   asynchronous ones are not recorded.  A crash's verdicts become one
   entry. *)
let observe t (ev : PE.t) =
  let mem op =
    record t
      (Mem { op; cell = ev.cell; cell_name = ev.name; line = ev.line; dirty = ev.dirty })
  in
  match ev.kind with
  | Read -> mem `Read
  | Write -> mem `Write
  | Cas _ -> mem `Cas
  | Flush _ | Write_back { effective = true; adversary = false } -> mem `Flush
  | Fence _ -> mem `Fence
  | Verdict evicted -> t.verdicts <- (ev.cell, ev.name, evicted) :: t.verdicts
  | Crashed ->
      record t (Crash { verdicts = List.rev t.verdicts });
      t.verdicts <- []
  | Write_back _ | Alloc -> ()

let subscription = ref None

let stop () =
  sink := noop;
  active_tracer := None;
  cur_tid := -1;
  Option.iter PE.unsubscribe !subscription;
  subscription := None

let attach t =
  active_tracer := Some t;
  sink := record t;
  subscription := Some (PE.subscribe (observe t))

let start ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Trace.start: capacity must be positive";
  stop ();
  let t =
    { capacity; rings = Array.make 8 None; seq = 0; lock = Mutex.create (); verdicts = [] }
  in
  attach t;
  t

let muted f =
  match !active_tracer with
  | None -> f ()
  | Some t ->
      let tid = !cur_tid in
      stop ();
      Fun.protect
        ~finally:(fun () ->
          attach t;
          cur_tid := tid)
        f

(* ----------------------------- emitters ------------------------------- *)

let op_begin op ~args = if is_on () then !sink (Op_begin { op; args })
let op_end op ~result = if is_on () then !sink (Op_end { op; result })

let recovery_begin () = if is_on () then !sink Recovery_begin
let recovery_end () = if is_on () then !sink Recovery_end
let resolve ~outcome = if is_on () then !sink (Resolve { outcome })

(* ----------------------------- accessors ------------------------------ *)

let fold_rings t f init =
  Array.fold_left
    (fun acc r -> match r with None -> acc | Some r -> f acc r)
    init t.rings

let entries t =
  fold_rings t (fun acc r -> List.rev_append (ring_entries r) acc) []
  |> List.sort (fun (a : entry) (b : entry) -> compare a.seq b.seq)

let recorded t = t.seq
let dropped t = fold_rings t (fun acc r -> acc + r.ring_dropped) 0

let dropped_by_thread t =
  let acc = ref [] in
  Array.iteri
    (fun idx r ->
      match r with
      | Some r when r.ring_dropped > 0 -> acc := (idx - 1, r.ring_dropped) :: !acc
      | _ -> ())
    t.rings;
  List.rev !acc

(** Run [f] under a fresh tracer and return its result together with the
    merged entries recorded during the call.  The tracer is detached
    afterwards (also on raise; the exception propagates). *)
let capture ?capacity f =
  let t = start ?capacity () in
  let finally () =
    match !active_tracer with Some t' when t' == t -> stop () | _ -> ()
  in
  match f () with
  | v ->
      let es = entries t in
      finally ();
      (v, es)
  | exception e ->
      finally ();
      raise e

(* ------------------------------ rendering ----------------------------- *)

let mem_op_name = function
  | `Read -> "read"
  | `Write -> "write"
  | `Cas -> "cas"
  | `Flush -> "flush"
  | `Fence -> "fence"

let cell_label cell name =
  if cell < 0 then name else Printf.sprintf "%s#%d" name cell

let verdict_summary verdicts =
  let names ok =
    List.filter_map
      (fun (id, name, evicted) ->
        if evicted = ok then Some (cell_label id name) else None)
      verdicts
  in
  let part label = function
    | [] -> None
    | cells -> Some (Printf.sprintf "%s {%s}" label (String.concat ", " cells))
  in
  match
    List.filter_map Fun.id
      [ part "evicted" (names true); part "lost" (names false) ]
  with
  | [] -> "no dirty cells"
  | parts -> String.concat "; " parts

let pp_event fmt = function
  | Op_begin { op; args } -> Format.fprintf fmt "begin %s(%s)" op args
  | Op_end { op; result } -> Format.fprintf fmt "end   %s -> %s" op result
  | Mem { op; cell; cell_name; line; dirty } ->
      Format.fprintf fmt "%-5s %s%s%s" (mem_op_name op)
        (cell_label cell cell_name)
        (if line < 0 then "" else Printf.sprintf "@L%d" line)
        (if dirty then "*" else "")
  | Crash { verdicts } ->
      Format.fprintf fmt "CRASH: %s" (verdict_summary verdicts)
  | Recovery_begin -> Format.pp_print_string fmt "recovery begin"
  | Recovery_end -> Format.pp_print_string fmt "recovery end"
  | Resolve { outcome } -> Format.fprintf fmt "resolve -> %s" outcome

let thread_label tid = if tid < 0 then "sys" else Printf.sprintf "t%d" tid

let pp_timeline fmt entries =
  List.iter
    (fun (e : entry) ->
      Format.fprintf fmt "[%5d] %-4s %a@." e.seq (thread_label e.tid) pp_event
        e.event)
    entries

(* --------------------------- Chrome export ---------------------------- *)

(* Perfetto wants non-negative thread ids; shift ours by one so the
   system context (-1) renders as tid 0 with a proper name. *)
let chrome_tid tid = tid + 1

let to_chrome_json ?(process = "dssq") entries =
  let ev ?(extra = []) ~name ~cat ~ph (e : entry) =
    Json.Obj
      ([
         ("name", Json.String name);
         ("cat", Json.String cat);
         ("ph", Json.String ph);
         ("pid", Json.Int 1);
         ("tid", Json.Int (chrome_tid e.tid));
         ("ts", Json.Int e.seq);
       ]
      @ extra)
  in
  let instant ?(scope = "t") ?(args = []) ~name ~cat e =
    ev ~name ~cat ~ph:"i"
      ~extra:
        (("s", Json.String scope)
         ::
         (match args with [] -> [] | args -> [ ("args", Json.Obj args) ]))
      e
  in
  let of_entry (e : entry) =
    match e.event with
    | Op_begin { op; args } ->
        ev ~name:op ~cat:"op" ~ph:"B"
          ~extra:[ ("args", Json.Obj [ ("args", Json.String args) ]) ]
          e
    | Op_end { op; result } ->
        ev ~name:op ~cat:"op" ~ph:"E"
          ~extra:[ ("args", Json.Obj [ ("result", Json.String result) ]) ]
          e
    | Mem { op; cell; cell_name; line; dirty } ->
        instant
          ~name:
            (Printf.sprintf "%s %s" (mem_op_name op) (cell_label cell cell_name))
          ~cat:"mem"
          ~args:
            [
              ("cell", Json.Int cell);
              ("line", Json.Int line);
              ("dirty", Json.Bool dirty);
            ]
          e
    | Crash { verdicts } ->
        instant ~name:"crash" ~cat:"crash" ~scope:"g"
          ~args:
            [
              ( "verdicts",
                Json.List
                  (List.map
                     (fun (id, name, evicted) ->
                       Json.Obj
                         [
                           ("cell", Json.Int id);
                           ("name", Json.String name);
                           ("evicted", Json.Bool evicted);
                         ])
                     verdicts) );
            ]
          e
    | Recovery_begin -> ev ~name:"recovery" ~cat:"recovery" ~ph:"B" e
    | Recovery_end -> ev ~name:"recovery" ~cat:"recovery" ~ph:"E" e
    | Resolve { outcome } ->
        instant ~name:"resolve" ~cat:"resolve"
          ~args:[ ("outcome", Json.String outcome) ]
          e
  in
  let tids =
    List.sort_uniq compare (List.map (fun (e : entry) -> e.tid) entries)
  in
  let metadata =
    Json.Obj
      [
        ("name", Json.String "process_name");
        ("ph", Json.String "M");
        ("pid", Json.Int 1);
        ("args", Json.Obj [ ("name", Json.String process) ]);
      ]
    :: List.map
         (fun tid ->
           Json.Obj
             [
               ("name", Json.String "thread_name");
               ("ph", Json.String "M");
               ("pid", Json.Int 1);
               ("tid", Json.Int (chrome_tid tid));
               ("args", Json.Obj [ ("name", Json.String (thread_label tid)) ]);
             ])
         tids
  in
  Json.Obj
    [
      ("traceEvents", Json.List (metadata @ List.map of_entry entries));
      ("displayTimeUnit", Json.String "ms");
    ]

let write_chrome file entries =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Json.to_string (to_chrome_json entries)))
