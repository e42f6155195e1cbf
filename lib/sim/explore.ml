(** Crash-consistency model checker over the stepping machine.

    Enumerates interleavings of a small scenario, optionally injecting a
    crash at every reachable step boundary with a {e per-line} eviction
    adversary: at a crash point, every subset of the currently dirty
    persist lines may survive to persistence (be evicted by the cache)
    while the rest is lost.  The search hands each node's live scenario
    to its first explored child, which advances it by one step; a fresh
    replay of the scenario from scratch happens only for each later
    sibling (backtracking), since thread continuations are one-shot.

    A crash branch is a cold restart, as in the paper's failure model,
    where a crash leaves only persistent state: a fresh layout
    ([setup ()] without its prologue) is loaded with the image the crash
    leaves of the live heap ({!Heap.crash_into}, which leaves the live
    heap as it was) and adopts the live world's recorded history, and
    recovery and the check run on it.  Nothing volatile survives, and
    neither the prologue nor a prefix is replayed.  So a branch's
    outcome is a function of (image, history), which makes the skip
    below exact: a crash point runs only the choices whose image its
    parent point did not already produce.  The step record
    ({!Machine.last}) decides which those are, when the step recorded
    no history event, allocated no cell and raised in no thread, and
    the choices are enumerated.  A step that changed no crash state
    ({!Machine.stepped.changed}) repeats every choice of the parent's.
    Under the per-line adversary with no persist buffer pending at the
    parent, a write-back that changes no volatile word (a flush, a
    drain, a fence that drains, a failed CAS's leading drain) repeats
    every choice, when the point has no buffer pending either or its
    one buffer holds only the flushed line; with none pending at the
    point, a store to line [l] repeats every choice that drops [l].
    The parent's choices were checked — in this
    preemption round, or in an earlier one if the step preempted.  A
    repeated choice is counted ([skipped_branches], and [skipped_points]
    when it is all of a point's) and not run.

    Every crash point draws its choices through one enumerator.  Under
    buffered (px86) persistency a choice also names an adversary-chosen
    {e buffer-drain prefix} per thread: any FIFO prefix of its persist
    buffer may have been written back asynchronously before power was
    lost.  These appear as {!Bdrain} decisions (token [b<tid>:<count>])
    directly before the [Crash], so relaxed counterexamples replay
    byte-for-byte like everything else.  Strict persistency is the case
    with every buffer empty: no choice carries a drain.

    Two complementary bounding techniques keep the search tractable:

    - {b Sleep-set reduction} (a simple stateless DPOR): after exploring
      thread [t]'s step from a node, later sibling branches carry [t] in
      their sleep set until a step {e dependent} on [t]'s is taken, and a
      branch whose chosen thread is asleep is pruned.  Independence is
      keyed on the memory identity the trace layer already stamps on
      every event: reads commute with reads, writes/CASes conflict on
      the same cell, flushes conflict with writes/CASes/flushes on the
      same persist line, and fences/yields commute with everything.  A
      fresh thread's first step runs arbitrary closure code and is
      treated as conflicting with everything.

    - {b Iterative deepening on the CHESS preemption bound}: round [k]
      checks exactly the executions with [k] preemptions, so shallow
      schedules (where most concurrency bugs live) are judged before
      deep ones and no execution is checked twice across rounds.

    The search carries each execution's decisions newest first, so a
    branch costs one cons; the forward {!schedule} is built only where
    one is read: a later sibling's replay, a {!Violation} (and the token
    printed from it), and {!replay_schedule}.

    [setup] must build a fresh, fully independent scenario each time it
    is called: a fresh heap, fresh memory module, fresh object, fresh
    thread closures — and the same cells in the same order each time,
    because a cold restart loads one set-up's image into another by
    position.  It builds the layout only; the scenario's [prologue]
    (seed operations, preps) runs on live worlds, after the mark a cold
    restart loads from, and allocates no cell.  [check] is called at
    the end of every complete execution; a raise is converted into
    {!Violation} carrying the replayable schedule of decisions that
    produced it.

    What an execution costs follows what it changes.  The crash
    adversary's questions ({!Heap.crash_candidate_lines}, the crash
    itself) are answered from the heap's index of the lines dirty right
    now, not by walking every cell, and [check] may answer from a cache:
    the litmus corpus keeps each case's passing verdicts, keyed on the
    whole history, and checks every other history afresh.  Neither
    changes what is explored: counts, verdict draws and tokens are those
    of a search that walks the heap and checks every history. *)

open Dssq_pmem
module Trace = Dssq_obs.Trace

exception Too_many_executions of int

type verdict = { line : int; evicted : bool }
(** Crash fate of one dirty persist line: [evicted = true] means the
    cache wrote the line back before power was lost (its writes
    survive), [false] means the line was dropped. *)

type decision =
  | Sched of int
  | Bdrain of { tid : int; count : int }
      (** adversary buffer write-back (px86): persist the oldest [count]
          entries of thread [tid]'s persist-buffer FIFO.  Only directly
          before a crash; anything else is a bad token. *)
  | Crash of verdict list
(** One branch choice: step thread [tid], or crash with the given
    per-dirty-line verdicts (under px86, preceded by adversary-chosen
    buffer-drain prefixes).  A complete list of decisions identifies an
    execution exactly and is the replayable counterexample currency. *)

type schedule = decision list

exception Violation of { schedule : schedule; exn : exn }
(** [check] raised [exn] at the end of the execution produced by
    [schedule].  Replay the schedule (e.g. [dssq explore --replay]) to
    reproduce it deterministically, per-line crash verdicts included. *)

type adversary = [ `Per_line | `All_or_nothing ]
(** Crash adversary: [`Per_line] enumerates subsets of the dirty lines
    (the real failure mode); [`All_or_nothing] keeps the legacy
    "evict everything"/"evict nothing" pair, useful for comparisons. *)

type stats = {
  executions : int;  (** complete executions checked *)
  pruned : int;  (** branches cut by sleep-set reduction *)
  crash_branches : int;  (** crash executions among [executions] *)
  branches : int;  (** schedule branches actually descended into *)
  crash_points : int;  (** step boundaries where crash verdicts were drawn *)
  crash_enumerated : int;
      (** crash points whose 2^k eviction subsets were fully enumerated *)
  crash_sampled : int;
      (** crash points that fell back to sampling (k over the cap) *)
  drain_points : int;
      (** crash points where at least one px86 persist buffer was
          nonempty, i.e. where buffer-drain prefixes were enumerated *)
  drain_branches : int;
      (** crash executions that carried at least one [Bdrain] decision *)
  replays : int;
      (** [setup] calls: one per round, per later sibling and per crash
          branch checked; all but the crash branches' run the prologue *)
  skipped_points : int;
      (** crash points among [crash_points] with every branch skipped *)
  skipped_branches : int;
      (** crash branches whose image the parent point produced, so they
          were not run: not in [executions] *)
  wall_s : float;  (** wall-clock seconds spent in [run] *)
}

type history = {
  recorded : unit -> int;
  lend : unit -> unit;
  adopt : unit -> unit;
}

let no_history = { recorded = (fun () -> 0); lend = ignore; adopt = ignore }

type 'ctx scenario = {
  ctx : 'ctx;
  heap : Heap.t;
  threads : (unit -> unit) list;
  history : history;
  prologue : unit -> unit;
}

type 'ctx t = {
  setup : unit -> 'ctx scenario;
  check : 'ctx -> Heap.t -> crashed:bool -> unit;
  on_crash : 'ctx -> Heap.t -> unit;
      (* recovery hook: runs after the crash semantics are applied and
         before [check] — scenarios thread Recovery.reattach through
         here, so every explored crash (mid-alloc, mid-log-append, ...)
         recovers through the system-level path before being judged *)
  crashes : bool;
  adversary : adversary;
  max_crash_lines : int;
      (* enumerate all 2^k eviction subsets while the dirty-line count k
         stays at or under this; above it, fall back to sampling *)
  crash_samples : int;
  seed : int;
  reduction : bool;
  max_steps : int;
  limit : int;
  max_preemptions : int option;
      (* CHESS-style bound: a context switch away from a thread that is
         still runnable counts as a preemption; most concurrency bugs
         manifest within 2-3 preemptions, and the bound turns an
         exponential schedule space into a polynomial one. *)
  mutable rng : Random.State.t;
  mutable executions : int;
  mutable pruned : int;
  mutable crash_branches : int;
  mutable branches : int;
  mutable crash_points : int;
  mutable crash_enumerated : int;
  mutable crash_sampled : int;
  mutable drain_points : int;
  mutable drain_branches : int;
  mutable replays : int;
  mutable skipped_points : int;
  mutable skipped_branches : int;
}

let make ?(crashes = false) ?(adversary = `Per_line) ?(max_crash_lines = 4)
    ?(crash_samples = 6) ?(seed = 0) ?(reduction = true) ?(max_steps = 10_000)
    ?(limit = 2_000_000) ?max_preemptions ?(on_crash = fun _ _ -> ()) ~setup
    ~check () =
  {
    setup;
    check;
    on_crash;
    crashes;
    adversary;
    max_crash_lines;
    crash_samples;
    seed;
    reduction;
    max_steps;
    limit;
    max_preemptions;
    rng = Random.State.make [| seed; 0xD55 |];
    executions = 0;
    pruned = 0;
    crash_branches = 0;
    branches = 0;
    crash_points = 0;
    crash_enumerated = 0;
    crash_sampled = 0;
    drain_points = 0;
    drain_branches = 0;
    replays = 0;
    skipped_points = 0;
    skipped_branches = 0;
  }

(* ------------------------------------------------------------------ *)
(* Schedule tokens.                                                    *)

let verdicts_to_string vs =
  String.concat ","
    (List.map
       (fun { line; evicted } ->
         Printf.sprintf "%d%c" line (if evicted then 'e' else 'd'))
       vs)

let schedule_to_string sched =
  String.concat "."
    (List.map
       (function
         | Sched tid -> Printf.sprintf "t%d" tid
         | Bdrain { tid; count } -> Printf.sprintf "b%d:%d" tid count
         | Crash vs -> "c" ^ verdicts_to_string vs)
       sched)

let schedule_of_string s =
  let fail tok =
    invalid_arg (Printf.sprintf "Explore.schedule_of_string: bad token %S" tok)
  in
  let verdict tok part =
    let n = String.length part in
    if n < 2 then fail tok;
    let line =
      match int_of_string_opt (String.sub part 0 (n - 1)) with
      | Some l -> l
      | None -> fail tok
    in
    match part.[n - 1] with
    | 'e' -> { line; evicted = true }
    | 'd' -> { line; evicted = false }
    | _ -> fail tok
  in
  let decision tok =
    let rest = String.sub tok 1 (String.length tok - 1) in
    match tok.[0] with
    | 't' -> (
        match int_of_string_opt rest with
        | Some tid when tid >= 0 -> Sched tid
        | _ -> fail tok)
    | 'b' -> (
        match String.index_opt rest ':' with
        | Some i -> (
            let tid = int_of_string_opt (String.sub rest 0 i) in
            let count =
              int_of_string_opt
                (String.sub rest (i + 1) (String.length rest - i - 1))
            in
            match (tid, count) with
            | Some tid, Some count when tid >= 0 && count >= 1 ->
                Bdrain { tid; count }
            | _ -> fail tok)
        | None -> fail tok)
    | 'c' ->
        if rest = "" then Crash []
        else Crash (String.split_on_char ',' rest |> List.map (verdict tok))
    | _ -> fail tok
  in
  let parsed =
    String.split_on_char '.' s
    |> List.filter (fun tok -> tok <> "")
    |> List.map (fun tok -> (tok, decision tok))
  in
  (* A drain is the crash's: only another drain or the crash follows it. *)
  let rec drains_precede_crash = function
    | (tok, Bdrain _) :: ([] | (_, Sched _) :: _) -> fail tok
    | _ :: rest -> drains_precede_crash rest
    | [] -> ()
  in
  drains_precede_crash parsed;
  List.map snd parsed

(* ------------------------------------------------------------------ *)
(* Replay.                                                             *)

(* Advance a live scenario by one scheduling step of [tid].  When a
   tracer is active (see [explain]) the step is attributed to its
   thread. *)
let advance scenario machine tid =
  scenario.heap.Heap.in_sim <- true;
  if Trace.is_on () then Trace.set_tid tid;
  Machine.step machine tid;
  scenario.heap.Heap.in_sim <- false;
  if Trace.is_on () then Trace.set_tid (-1)

let drain_counts =
  List.filter_map (function
    | Bdrain { tid; count } -> Some (tid, count)
    | Sched _ | Crash _ -> None)

(* A crash branch, run as a real restart runs it: a fresh layout holding
   the image the crash leaves of [live] — the buffer prefixes [drains]
   names written back, each dirty line evicted or lost as [vs] says —
   and [live]'s recorded history.  The prologue does not run: what it
   persisted is in the image, and nothing volatile it left survives a
   crash.  [live] is left as it was, so the search goes on from it. *)
let cold_restart t live ~drains vs =
  t.replays <- t.replays + 1;
  let fresh =
    if Trace.is_on () then begin
      Trace.set_tid (-1);
      Trace.muted t.setup
    end
    else t.setup ()
  in
  Heap.crash_into live.heap ~into:fresh.heap ~drains:(drain_counts drains)
    ~evict:(fun lid ->
      match List.find_opt (fun v -> v.line = lid) vs with
      | Some v -> v.evicted
      | None -> false (* line dirtied after the verdicts were drawn: lost *));
  live.history.lend ();
  fresh.history.adopt ();
  fresh

(* Replay [prefix] on a fresh scenario: its layout, the mark a cold
   restart loads from, then its prologue.  Returns the machine positioned
   after the prefix, unless the prefix ends in a crash: then the crash
   branch's cold restart, its image written back through the drains
   just before the crash, is returned with [`Crashed]. *)
let replay t prefix =
  t.replays <- t.replays + 1;
  let scenario = t.setup () in
  Heap.log_persists scenario.heap;
  scenario.prologue ();
  let machine = Machine.create scenario.heap scenario.threads in
  let rec go drains = function
    | [] when drains = [] -> (scenario, machine, `Running)
    | Sched tid :: rest when drains = [] ->
        advance scenario machine tid;
        go [] rest
    | (Bdrain _ as d) :: rest -> go (d :: drains) rest
    | Crash vs :: _ ->
        let crashed = cold_restart t scenario ~drains:(List.rev drains) vs in
        (crashed, machine, `Crashed)
    | _ -> invalid_arg "Explore.replay: a drain not directly before a crash"
  in
  go [] prefix

(* The exception an explored thread of [machine] raised, lowest thread
   first.  [Machine.Killed] is a crash's, not the thread's own. *)
let raised machine =
  let rec go tid =
    if tid = Machine.nthreads machine then None
    else
      match Machine.result machine tid with
      | Some (Error Machine.Killed) | Some (Ok ()) | None -> go (tid + 1)
      | Some (Error e) -> Some e
  in
  go 0

(* A thread's exception ([raised], read off the machine that ran the
   execution) fails the execution before recovery or the check run: a
   crash would otherwise mark the thread's operation pending and mask
   it.  [rev_schedule] is the execution's decisions, newest first. *)
let finish t rev_schedule scenario ~raised ~crashed =
  t.executions <- t.executions + 1;
  if t.executions > t.limit then raise (Too_many_executions t.executions);
  match raised with
  | Some exn -> raise (Violation { schedule = List.rev rev_schedule; exn })
  | None -> (
      try
        if crashed then t.on_crash scenario.ctx scenario.heap;
        t.check scenario.ctx scenario.heap ~crashed
      with
      | Too_many_executions _ as e -> raise e
      | e -> raise (Violation { schedule = List.rev rev_schedule; exn = e }))

(* ------------------------------------------------------------------ *)
(* Independence relation, keyed on memory identity.                    *)

let independent (a : Machine.access) (b : Machine.access) =
  match (a, b) with
  | Machine.Pure, _ | _, Machine.Pure -> true
  | Machine.Start, _ | _, Machine.Start -> false
  | Machine.Mem x, Machine.Mem y -> (
      match (x.kind, y.kind) with
      | (Sim_op.Fence | Sim_op.Yield), _ | _, (Sim_op.Fence | Sim_op.Yield) ->
          true
      | Sim_op.Drain, _ | _, Sim_op.Drain ->
          (* unreachable: a drain's footprint is the thread's whole
             pending-line set, so [pending_access] reports it as [Start]
             (conflicts with everything), never as [Mem] *)
          false
      | Sim_op.Read, Sim_op.Read -> true
      | Sim_op.Read, Sim_op.Flush | Sim_op.Flush, Sim_op.Read ->
          (* a flush never changes volatile state and a read never
             changes dirtiness, so they commute even on the same line *)
          true
      | Sim_op.Flush, _ | _, Sim_op.Flush ->
          (* flush vs write/cas/flush: they interact through the line's
             dirtiness and persisted words (a buffered flush reads
             dirtiness to decide pend-vs-elide, so it conflicts too) *)
          x.line <> y.line
      | ( (Sim_op.Read | Sim_op.Write | Sim_op.Cas),
          (Sim_op.Read | Sim_op.Write | Sim_op.Cas) ) ->
          x.cell <> y.cell)

(* ------------------------------------------------------------------ *)
(* Crash adversary: the choices at one crash point.                    *)

(* Whether the per-line adversary enumerates a crash point in full: a
   FIFO write-back prefix per pending buffer of [fifos] crossed with a
   verdict per subset of the [k] unbuffered dirty lines, the
   [Π (len_t + 1) × 2^k] choices, fits one budget of [2^max_crash_lines]
   for the whole point.  [k] is tested before anything is shifted, so
   with no buffer pending (always, under sc) this is exactly
   [k <= max_crash_lines]. *)
let enumerates t ~fifos k =
  let room = t.max_crash_lines - k in
  t.adversary = `Per_line
  && room >= 0
  && (room >= Sys.int_size - 1
     || List.fold_left (fun acc (_, f) -> acc * (List.length f + 1)) 1 fifos
        <= 1 lsl room)

(* A crash point's choices, and whether it enumerated them.  Each is a
   drain prefix per thread and a verdict per unbuffered dirty line
   ([candidates]); the two axes are independent, since the drains write
   back buffered lines and the verdicts decide the rest.  Strict
   persistency is the case with no buffer pending: every choice then
   carries no drain.  Where {!enumerates} holds, every choice is drawn.
   Above the budget, and under [`All_or_nothing], the four extremes
   (nothing/everything drained × everything lost/written back) stand in,
   with [crash_samples] seeded random picks above the budget — the
   checker's one source of incompleteness (DESIGN.md §8).  A count-0
   prefix emits no decision, so drain-free branches carry plain
   schedules. *)
let crash_choices t ~fifos candidates =
  t.crash_points <- t.crash_points + 1;
  if fifos <> [] then t.drain_points <- t.drain_points + 1;
  let drains_of choice =
    List.filter_map
      (fun (tid, c) -> if c = 0 then None else Some (Bdrain { tid; count = c }))
      choice
  in
  let extremes () =
    let full =
      drains_of (List.map (fun (tid, f) -> (tid, List.length f)) fifos)
    in
    let uniform evicted = List.map (fun line -> { line; evicted }) candidates in
    List.sort_uniq compare
      [
        ([], uniform false);
        ([], uniform true);
        (full, uniform false);
        (full, uniform true);
      ]
  in
  let k = List.length candidates in
  match t.adversary with
  | `All_or_nothing ->
      t.crash_enumerated <- t.crash_enumerated + 1;
      (extremes (), true)
  | `Per_line when enumerates t ~fifos k ->
      t.crash_enumerated <- t.crash_enumerated + 1;
      let prefix_choices =
        List.fold_left
          (fun acc (tid, fifo) ->
            List.concat_map
              (fun partial ->
                List.init (List.length fifo + 1) (fun c ->
                    partial @ [ (tid, c) ]))
              acc)
          [ [] ] fifos
      in
      ( List.concat_map
          (fun choice ->
            let drains = drains_of choice in
            List.init (1 lsl k) (fun mask ->
                ( drains,
                  List.mapi
                    (fun i line -> { line; evicted = mask land (1 lsl i) <> 0 })
                    candidates )))
          prefix_choices,
        true )
  | `Per_line ->
      t.crash_sampled <- t.crash_sampled + 1;
      let samples =
        List.init t.crash_samples (fun _ ->
            let choice =
              List.map
                (fun (tid, f) ->
                  (tid, Random.State.int t.rng (List.length f + 1)))
                fifos
            in
            ( drains_of choice,
              List.map
                (fun line -> { line; evicted = Random.State.bool t.rng })
                candidates ))
      in
      (List.sort_uniq compare (extremes () @ samples), false)

(* ------------------------------------------------------------------ *)
(* Search.                                                             *)

(* [round = Some k]: iterative-deepening round that checks exactly the
   executions with [k] preemptions (so no execution is checked twice
   across rounds); [None]: unbounded, check everything. *)
let round_matches round preemptions =
  match round with None -> true | Some k -> preemptions = k

(* Which of a crash point's choices are new: [`All] of them, [`None], or
   [`Evicting l], those whose verdicts evict line [l].  A cold branch is
   a function of its image and the history, so a choice is old when the
   parent point had a choice with the same image and the same history,
   and that choice was checked — at the parent, or further up — in this
   round, or in an earlier one if the step preempted.  [parent] says
   what the parent point offers this one: [`None] when the step into it
   recorded a history event or allocated a cell (or it is the root);
   [`Point] when the step left the history alone; [`Plain] when, in
   addition, the parent's choices were every subset of its dirty lines
   (per-line adversary, no persist buffer pending, enumerated).  [plain]
   says the same of this point, and [fifos] are its pending buffers.
   DESIGN.md §8 has the argument per step kind. *)
let new_choices ~parent ~plain ~fifos (s : Machine.stepped) =
  match parent with
  | `None -> `All
  | `Point | `Plain when not s.changed ->
      (* The image and its lines are the parent's: every choice is one
         of the parent's. *)
      `None
  | `Point -> `All
  | `Plain when not plain -> (
      match (s.kind, fifos) with
      | Sim_op.Flush, [ (_, [ l ]) ] when l = s.line ->
          (* A buffered flush into empty buffers: the one entry's two
             drain prefixes write [l] back or leave it lost, the
             parent's two verdicts on [l], over the same volatile
             words. *)
          `None
      | _ -> `All)
  | `Plain -> (
      match s.kind with
      (* A store to line [l], after (coalesced) a drain that only wrote
         lines back.  A choice that drops [l] leaves the parent's image
         under the parent's verdicts on the other lines, with [l]
         dropped there, or evicted if the drain wrote it back, or either
         if it was clean. *)
      | Sim_op.Write -> `Evicting s.line
      | Sim_op.Cas when not s.cas_failed -> `Evicting s.line
      | Sim_op.Cas | Sim_op.Flush | Sim_op.Drain | Sim_op.Fence ->
          (* Write-backs that change no volatile word: each choice is
             the parent's with the written-back lines evicted. *)
          `None
      | Sim_op.Read | Sim_op.Yield -> `All)

let is_new fresh vs =
  match fresh with
  | `All -> true
  | `None -> false
  | `Evicting l -> List.exists (fun v -> v.line = l && v.evicted) vs

(* [scenario] and [machine] are live and positioned after the decisions
   [rev_prefix], newest first; [parent] is what the parent crash point
   offers this one (see [new_choices]). *)
let rec dfs t scenario machine rev_prefix depth ~parent ~sleep ~last
    ~preemptions ~round =
  if depth > t.max_steps then
    failwith "Explore: max_steps exceeded (livelock under exploration?)";
  let fifos = if t.crashes then Heap.pending_fifos scenario.heap else [] in
  (* Whether this point's choices are every subset of its dirty lines:
     what it offers its children as a parent ([`Plain]). *)
  let plain = fifos = [] && enumerates t ~fifos scenario.heap.Heap.ndirty in
  (* Crash branches: at every reachable step boundary, try each choice
     of drain prefixes and per-line verdicts ({!crash_choices}) except
     those whose image and history the parent point already had. *)
  (if t.crashes && round_matches round preemptions then begin
     let choices, enumerated =
       crash_choices t ~fifos (Heap.crash_candidate_lines scenario.heap)
     in
     let raised = raised machine in
     (* A sampled point draws choices its parent need not have had; a
        thread that raised in the step makes these branches fail where
        the parent's passed.  Either way every choice runs. *)
     let parent =
       if (not enumerated) || Option.is_some raised then `None else parent
     in
     let fresh = new_choices ~parent ~plain ~fifos (Machine.last machine) in
     let skipped = ref 0 in
     List.iter
       (fun (drains, vs) ->
         if not (is_new fresh vs) then incr skipped
         else begin
           let crashed = cold_restart t scenario ~drains vs in
           t.crash_branches <- t.crash_branches + 1;
           if drains <> [] then t.drain_branches <- t.drain_branches + 1;
           finish t
             (Crash vs :: List.rev_append drains rev_prefix)
             crashed ~raised ~crashed:true
         end)
       choices;
     t.skipped_branches <- t.skipped_branches + !skipped;
     if !skipped = List.length choices then
       t.skipped_points <- t.skipped_points + 1
   end);
  match Machine.runnable machine with
  | [] ->
      if round_matches round preemptions then
        finish t rev_prefix scenario ~raised:(raised machine) ~crashed:false
  | runnable ->
      (* Sleep-set reduction: [sleep] holds (tid, access) pairs whose
         step is covered by an already-explored sibling branch; entries
         survive into a child only while independent of the step taken.
         After exploring a thread's branch, that thread joins the sleep
         set of its later siblings.

         The first explored child takes this node's live machine over
         and advances it in place; later siblings replay their prefix
         afresh.  Every pending access is read before that handoff,
         while the machine still sits at this node. *)
      let accesses =
        List.map
          (fun tid ->
            match Machine.pending_access machine tid with
            | Some a -> (tid, a)
            | None -> assert false (* runnable => pending access *))
          runnable
      in
      let live = ref true in
      let recorded = scenario.history.recorded () in
      let cells = Heap.cell_count scenario.heap in
      let sleep = ref sleep in
      List.iter
        (fun (tid, access) ->
          if t.reduction && List.mem_assoc tid !sleep then
            t.pruned <- t.pruned + 1
          else
            let preempts = last >= 0 && tid <> last && List.mem last runnable in
            let allowed =
              match round with
              | Some bound when preempts -> preemptions < bound
              | _ -> true
            in
            if allowed then begin
              let child_sleep =
                List.filter (fun (_, a) -> independent a access) !sleep
              in
              t.branches <- t.branches + 1;
              let child = Sched tid :: rev_prefix in
              let scenario, machine =
                if !live then begin
                  live := false;
                  advance scenario machine tid;
                  (scenario, machine)
                end
                else
                  let scenario, machine, _ = replay t (List.rev child) in
                  (scenario, machine)
              in
              let parent =
                if
                  scenario.history.recorded () <> recorded
                  || Heap.cell_count scenario.heap <> cells
                then `None
                else if plain then `Plain
                else `Point
              in
              dfs t scenario machine child (depth + 1) ~parent
                ~sleep:child_sleep ~last:tid
                ~preemptions:(if preempts then preemptions + 1 else preemptions)
                ~round;
              sleep := (tid, access) :: !sleep
            end
            (* A branch skipped by the preemption bound was not explored,
               so it must NOT join the sleep set. *))
        accesses

let run t =
  t.executions <- 0;
  t.pruned <- 0;
  t.crash_branches <- 0;
  t.branches <- 0;
  t.crash_points <- 0;
  t.crash_enumerated <- 0;
  t.crash_sampled <- 0;
  t.drain_points <- 0;
  t.drain_branches <- 0;
  t.replays <- 0;
  t.skipped_points <- 0;
  t.skipped_branches <- 0;
  t.rng <- Random.State.make [| t.seed; 0xD55 |];
  let t0 = Unix.gettimeofday () in
  let search round =
    let scenario, machine, _ = replay t [] in
    dfs t scenario machine [] 0 ~parent:`None ~sleep:[] ~last:(-1)
      ~preemptions:0 ~round
  in
  (match t.max_preemptions with
  | None -> search None
  | Some bound ->
      for k = 0 to bound do
        search (Some k)
      done);
  {
    executions = t.executions;
    pruned = t.pruned;
    crash_branches = t.crash_branches;
    branches = t.branches;
    crash_points = t.crash_points;
    crash_enumerated = t.crash_enumerated;
    crash_sampled = t.crash_sampled;
    drain_points = t.drain_points;
    drain_branches = t.drain_branches;
    replays = t.replays;
    skipped_points = t.skipped_points;
    skipped_branches = t.skipped_branches;
    wall_s = Unix.gettimeofday () -. t0;
  }

(* ------------------------------------------------------------------ *)
(* Replay of recorded schedules.                                       *)

let replay_schedule t schedule =
  let scenario, machine, outcome = replay t schedule in
  let crashed = outcome = `Crashed in
  if (not crashed) && Machine.runnable machine <> [] then
    invalid_arg "Explore.replay_schedule: schedule is incomplete";
  finish t (List.rev schedule) scenario ~raised:(raised machine) ~crashed;
  if crashed then `Crashed else `Completed

type outcome = Passed of [ `Completed | `Crashed ] | Failed of exn

let explain t schedule =
  let result = ref (Passed `Completed) in
  let (), entries =
    Trace.capture (fun () ->
        match replay_schedule t schedule with
        | v -> result := Passed v
        | exception (Violation _ as e) -> result := Failed e)
  in
  (!result, entries)

let () =
  Printexc.register_printer (function
    | Violation { schedule; exn } ->
        Some
          (Printf.sprintf "Explore.Violation(schedule=%s): %s"
             (schedule_to_string schedule)
             (Printexc.to_string exn))
    | _ -> None)
