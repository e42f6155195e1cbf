(* Below both backends and below the observers, so neither side needs a
   hook into the other.  Subscription changes happen in set-up code;
   native domains emitting concurrently only read the subscriber list. *)

type flush = Written_back | Elided | Coalesced | Buffered

type kind =
  | Read
  | Write
  | Cas of bool
  | Flush of flush
  | Write_back of { effective : bool; adversary : bool }
  | Fence of int
  | Verdict of bool
  | Crashed
  | Alloc

type t = {
  kind : kind;
  tid : int;
  cell : int;
  name : string;
  line : int;
  dirty : bool;
}

type subscription = t -> unit

let subscribers : subscription list ref = ref []
let is_on () = !subscribers != []

let subscribe f =
  subscribers := !subscribers @ [ f ];
  f

let unsubscribe f = subscribers := List.filter (fun g -> g != f) !subscribers

let emit kind ~tid ~cell ~name ~line ~dirty =
  let ev = { kind; tid; cell; name; line; dirty } in
  List.iter (fun f -> f ev) !subscribers

(* Native code has no scheduler to name the acting thread; drivers that
   run workers one at a time pin it here. *)
let pinned = ref (-1)
let pin_tid tid = pinned := tid
let pinned_tid () = !pinned
