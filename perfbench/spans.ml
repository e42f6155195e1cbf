(* Span records for the traced run: name, start, end, parent and op id,
   kept in memory and written as JSON when the run ends.  The benchmark
   opens spans around its own calls into each layer's public functions;
   nothing inside the library is instrumented.  Off (the untraced run),
   [with_span] is a direct call. *)

type span = {
  name : string;
  op : int;
  parent : int;
  start : int;
  mutable stop : int;
}

let on = ref false
let spans : span list ref = ref []
let count = ref 0
let stack = ref []

let with_span name ?(op = -1) f =
  if not !on then f ()
  else begin
    let parent = match !stack with id :: _ -> id | [] -> -1 in
    let id = !count in
    let s = { name; op; parent; start = Clock.now (); stop = 0 } in
    incr count;
    spans := s :: !spans;
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop <- Clock.now ();
        stack := List.tl !stack)
      f
  end

let all () = Array.of_list (List.rev !spans)
let duration s = s.stop - s.start

(* Per span name: total duration and total self time (duration minus
   the time its direct children cover), in ns, and the span count. *)
let totals () =
  let a = all () in
  let child = Array.make (Array.length a) 0 in
  Array.iter
    (fun s -> if s.parent >= 0 then child.(s.parent) <- child.(s.parent) + duration s)
    a;
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let d, self, n =
        Option.value ~default:(0, 0, 0) (Hashtbl.find_opt tbl s.name)
      in
      Hashtbl.replace tbl s.name (d + duration s, self + duration s - child.(i), n + 1))
    a;
  tbl

let total name =
  match Hashtbl.find_opt (totals ()) name with
  | Some (d, _, n) -> (float_of_int d, n)
  | None -> (0., 0)

(* Durations of every span called [name], in ns. *)
let durations name =
  List.filter_map
    (fun s -> if s.name = name then Some (float_of_int (duration s)) else None)
    !spans

(* Compact JSON: one array per span, fields as named in "fields"; the
   name is an index into "names". *)
let write file =
  let a = all () in
  let names = Hashtbl.create 16 and order = ref [] in
  Array.iter
    (fun s ->
      if not (Hashtbl.mem names s.name) then begin
        Hashtbl.add names s.name (Hashtbl.length names);
        order := s.name :: !order
      end)
    a;
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "{\"schema\": \"perfbench.spans\", \"version\": 1,\n";
      Printf.fprintf oc " \"names\": [%s],\n"
        (String.concat ", "
           (List.rev_map (fun n -> Printf.sprintf "%S" n) !order));
      Printf.fprintf oc
        " \"fields\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"op\"],\n";
      Printf.fprintf oc " \"spans\": [";
      Array.iteri
        (fun i s ->
          Printf.fprintf oc "%s\n  [%d, %d, %d, %d, %d]"
            (if i = 0 then "" else ",")
            (Hashtbl.find names s.name) s.start s.stop s.parent s.op)
        a;
      Printf.fprintf oc "]}\n")
