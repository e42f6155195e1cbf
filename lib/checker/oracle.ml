(** Lincheck-as-oracle: the bridge that lets {!Dssq_sim.Explore} judge
    every explored execution by the paper's Section 2 formalism instead
    of ad-hoc asserts.  A scenario records a {!Dssq_history.History.t}
    while its threads run; at the end of each execution (complete or
    crashed) the history — recovery, resolves, exactly-once retries and
    drain reads included — goes through {!Dssq_lincheck.Lincheck.check},
    and a non-linearizable verdict raises, which the explorer converts
    into a replayable {!Dssq_sim.Explore.Violation}. *)

module Spec = Dssq_spec.Spec
module History = Dssq_history.History
module Lincheck = Dssq_lincheck.Lincheck
module Recorder = Dssq_history.Recorder

exception Not_linearizable of string
(** Carries the pretty-printed failing history (the trace timeline is
    recovered separately by replaying the violation's schedule under
    [Explore.explain]). *)

let mode_name = function
  | Lincheck.Strict -> "strict"
  | Lincheck.Recoverable -> "recoverable"
  | Lincheck.Durable -> "durable"

let mode_of_name = function
  | "strict" -> Some Lincheck.Strict
  | "recoverable" -> Some Lincheck.Recoverable
  | "durable" -> Some Lincheck.Durable
  | _ -> None

(** Check one recorded history against [spec] under [mode]; raise
    {!Not_linearizable} with the printed history on failure. *)
let assert_linearizable ?(mode = Lincheck.Strict) (spec : _ Spec.t) history =
  match Lincheck.check ~mode spec history with
  | Lincheck.Linearizable _ -> ()
  | Lincheck.Not_linearizable _ ->
      let buf = Buffer.create 256 in
      let fmt = Format.formatter_of_buffer buf in
      History.pp ~pp_op:spec.Spec.pp_op ~pp_response:spec.Spec.pp_response fmt
        history;
      Format.pp_print_flush fmt ();
      raise
        (Not_linearizable
           (Printf.sprintf "history not %s-linearizable w.r.t. %s:\n%s"
              (mode_name mode) spec.Spec.name (Buffer.contents buf)))

(** Passing verdicts for one specification and mode — one corpus case.
    {!Lincheck.check} is a pure function of spec, mode and history, and
    the explorer's executions of one case repeat a small set of histories
    (a crash branch's history depends only on what recovery and the
    retries observe), so a history already judged linearizable is not
    judged again.  Failures are never stored: every failing history
    reaches the checker and raises. *)
type ('s, 'op, 'r) cache = {
  spec : ('s, 'op, 'r) Spec.t;
  mode : Lincheck.mode;
  passed : (int, ('op, 'r) History.event list list) Hashtbl.t;
      (* {!hash_history} -> the passing histories with that hash, newest
         event first *)
}

let cache ?(mode = Lincheck.Strict) spec =
  { spec; mode; passed = Hashtbl.create 64 }

(* A hash over every event.  [Hashtbl.hash] of the list itself would
   stop after a bounded prefix, and every history of a case shares its
   set-up prefix.  {!Recorder.hash} keeps it as events are recorded. *)
let hash_history history =
  List.fold_left (fun h e -> (h * 31) + Hashtbl.hash e) 0 history

(** {!assert_linearizable} of [recorder]'s history through [cache]: a
    history structurally equal to one that passed before passes at once.
    The key is the recorder's running hash, and the histories compare
    newest event first, where a case's histories differ; the history is
    put oldest first only when it reaches the checker. *)
let check_cached c recorder =
  let key = Recorder.hash recorder
  and events = Recorder.newest_first recorder in
  let seen = Option.value ~default:[] (Hashtbl.find_opt c.passed key) in
  if not (List.mem events seen) then begin
    assert_linearizable ~mode:c.mode c.spec (List.rev events);
    Hashtbl.replace c.passed key (events :: seen)
  end

let () =
  Printexc.register_printer (function
    | Not_linearizable msg -> Some ("Oracle.Not_linearizable: " ^ msg)
    | _ -> None)
