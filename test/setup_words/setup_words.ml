(* The words one model-checker set-up allocates, for the restart world
   and the live world of every corpus object ({!Scenarios.setup_worlds}):
   [Gc.minor_words] over [n] set-ups, after one warm-up call.  The count
   is deterministic for one compiler version, so a change to what a
   world allocates shows as a diff against
   test/golden/setup-words.expected.  Blocks over 256 words go to the
   major heap directly and are not counted. *)

module Scenarios = Dssq_checker.Scenarios

let n = 1000

let () =
  List.iter
    (fun (name, setup) ->
      ignore (Sys.opaque_identity (setup ()));
      let before = Gc.minor_words () in
      for _ = 1 to n do
        ignore (Sys.opaque_identity (setup ()))
      done;
      Printf.printf "%-28s %8.1f words/setup\n" name
        ((Gc.minor_words () -. before) /. float_of_int n))
    (Scenarios.setup_worlds ())
