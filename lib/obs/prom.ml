(** Prometheus text exposition format (version 0.0.4) for the
    observability layer: labeled samples, such as the attribution
    table's ({!Attrib.samples}), e.g.

    {v
    dssq_heatmap_flushes{line="3",label="q.state",object="q"} 128
    dssq_profile_flushes{phase="announce"} 1600
    v}

    Only the exposition subset the repo needs: metric names sanitized to
    the legal character set, label values escaped per the format's
    backslash rules (with an exact inverse for round-trip testing), and
    integer-valued samples printed without an exponent so the files diff
    cleanly across runs. *)

type sample = {
  s_name : string;
  s_labels : (string * string) list;
  s_value : float;
}

(* Metric names: [a-zA-Z_:][a-zA-Z0-9_:]*.  Anything else becomes '_'
   (the conventional flattening for dotted registry names). *)
let sanitize_name name =
  let ok_head c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'
  in
  let ok c = ok_head c || (c >= '0' && c <= '9') in
  if name = "" then "_"
  else
    String.mapi
      (fun i c -> if (if i = 0 then ok_head c else ok c) then c else '_')
      name

(* Label values: escape backslash, double quote and newline — exactly
   the three escapes the text format defines. *)
let escape_label s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Exact inverse of {!escape_label}.  Unknown escapes keep the
   backslash literally, as Prometheus parsers do; a trailing lone
   backslash is kept too. *)
let unescape_label s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (if s.[!i] = '\\' && !i + 1 < n then begin
       (match s.[!i + 1] with
       | '\\' -> Buffer.add_char buf '\\'
       | '"' -> Buffer.add_char buf '"'
       | 'n' -> Buffer.add_char buf '\n'
       | c ->
           Buffer.add_char buf '\\';
           Buffer.add_char buf c);
       i := !i + 2
     end
     else begin
       Buffer.add_char buf s.[!i];
       incr i
     end)
  done;
  Buffer.contents buf

(* Integers render exactly ("128", not "1.28e+02"); everything else
   falls back to shortest-roundtrip-ish %g at high precision. *)
let value_to_string v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

let sample_to_string s =
  let labels =
    match s.s_labels with
    | [] -> ""
    | ls ->
        "{"
        ^ String.concat ","
            (List.map
               (fun (k, v) ->
                 Printf.sprintf "%s=\"%s\"" (sanitize_name k) (escape_label v))
               ls)
        ^ "}"
  in
  Printf.sprintf "%s%s %s" (sanitize_name s.s_name) labels
    (value_to_string s.s_value)

let render samples =
  String.concat "" (List.map (fun s -> sample_to_string s ^ "\n") samples)

let write path samples =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (render samples))
