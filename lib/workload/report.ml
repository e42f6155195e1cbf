(** Plain-text and CSV rendering of benchmark series, one column per
    implementation — the same rows the paper plots in its figures. *)

open Dssq_obs.Run_report

(** A series of figure data only (no events, no latency): one point per
    x, its samples [samples x]. *)
let figure ~label samples xs : series =
  {
    label;
    points =
      List.map
        (fun x ->
          {
            x;
            samples = samples x;
            ops = 0;
            events = Dssq_memory.Memory_intf.Counters.zero;
            latency = None;
          })
        xs;
  }

let mean_at (series : series) x =
  match List.find_opt (fun p -> p.x = x) series.points with
  | Some p -> Some (Stats.mean p.samples)
  | None -> None

let xs_of (all : series list) =
  List.concat_map (fun s -> List.map (fun p -> p.x) s.points) all
  |> List.sort_uniq compare

let print_table ?(out = Format.std_formatter) ~title ~x_label ~y_label
    (all : series list) =
  Format.fprintf out "## %s (%s)@." title y_label;
  let xs = xs_of all in
  let col_width =
    List.fold_left (fun w s -> max w (String.length s.label + 2)) 12 all
  in
  Format.fprintf out "%-10s" x_label;
  List.iter (fun s -> Format.fprintf out "%*s" col_width s.label) all;
  Format.fprintf out "@.";
  List.iter
    (fun x ->
      Format.fprintf out "%-10d" x;
      List.iter
        (fun s ->
          match mean_at s x with
          | Some m -> Format.fprintf out "%*.3f" col_width m
          | None -> Format.fprintf out "%*s" col_width "-")
        all;
      Format.fprintf out "@.")
    xs;
  (* Noise summary, like the paper's "stddev < 2% of mean" remark. *)
  let worst_rsd =
    List.fold_left
      (fun w s ->
        List.fold_left (fun w p -> max w (Stats.rsd p.samples)) w s.points)
      0. all
  in
  if worst_rsd > 0. then
    Format.fprintf out "(max relative stddev across points: %.1f%%)@." worst_rsd;
  Format.fprintf out "@."

let to_csv ~x_label (all : series list) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (String.concat "," (x_label :: List.map (fun s -> s.label) all));
  Buffer.add_char buf '\n';
  List.iter
    (fun x ->
      Buffer.add_string buf (string_of_int x);
      List.iter
        (fun s ->
          Buffer.add_char buf ',';
          match mean_at s x with
          | Some m -> Buffer.add_string buf (Printf.sprintf "%.4f" m)
          | None -> ())
        all;
      Buffer.add_char buf '\n')
    (xs_of all);
  Buffer.contents buf

(** Compact ASCII rendering of the series as a scalability chart, so the
    figure's shape is visible straight from a terminal. *)
let print_chart ?(out = Format.std_formatter) ?(height = 12)
    (all : series list) =
  let xs = xs_of all in
  let maxv =
    List.fold_left
      (fun m s ->
        List.fold_left (fun m p -> max m (Stats.mean p.samples)) m s.points)
      0.0 all
  in
  if maxv > 0. then begin
    let glyphs = [| '*'; 'o'; '+'; 'x'; '#'; '@' |] in
    let cols = List.length xs in
    let grid = Array.make_matrix height cols ' ' in
    List.iteri
      (fun si s ->
        let g = glyphs.(si mod Array.length glyphs) in
        List.iteri
          (fun ci x ->
            match mean_at s x with
            | None -> ()
            | Some v ->
                let row =
                  height - 1 - int_of_float (v /. maxv *. float_of_int (height - 1))
                in
                let row = max 0 (min (height - 1) row) in
                if grid.(row).(ci) = ' ' then grid.(row).(ci) <- g)
          xs)
      all;
    Array.iteri
      (fun r row ->
        let label =
          if r = 0 then Printf.sprintf "%8.2f |" maxv
          else if r = height - 1 then Printf.sprintf "%8.2f |" 0.
          else "         |"
        in
        Format.fprintf out "%s %s@." label
          (String.concat "  " (Array.to_list (Array.map (String.make 1) row))))
      grid;
    Format.fprintf out "          +%s@."
      (String.make ((3 * List.length xs) + 1) '-');
    Format.fprintf out "           %s@."
      (String.concat " " (List.map (Printf.sprintf "%2d") xs));
    List.iteri
      (fun si s ->
        Format.fprintf out "           %c = %s@."
          glyphs.(si mod Array.length glyphs)
          s.label)
      all;
    Format.fprintf out "@."
  end
