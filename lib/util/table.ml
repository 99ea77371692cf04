type row = { label : string; cells : string list }

type t = {
  title : string;
  columns : string list;
  mutable rows : row list; (* reverse order *)
}

let create ~title ~columns = { title; columns; rows = [] }

let add_text_row t ~label ~cells =
  if List.length cells <> List.length t.columns then
    invalid_arg "Table.add_text_row: cell count mismatch";
  t.rows <- { label; cells } :: t.rows

let render t =
  let rows = List.rev t.rows in
  let header = "" :: t.columns in
  let all_rows = header :: List.map (fun r -> r.label :: r.cells) rows in
  let ncols = List.length header in
  let widths = Array.make ncols 0 in
  let note_widths cells =
    List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) cells
  in
  List.iter note_widths all_rows;
  let buf = Buffer.create 256 in
  Buffer.add_string buf t.title;
  Buffer.add_char buf '\n';
  let total_width = Array.fold_left (fun acc w -> acc + w + 2) 0 widths in
  Buffer.add_string buf (String.make (max (String.length t.title) total_width) '-');
  Buffer.add_char buf '\n';
  let emit_row cells =
    List.iteri
      (fun i cell ->
        let pad = widths.(i) - String.length cell in
        if i = 0 then begin
          Buffer.add_string buf cell;
          Buffer.add_string buf (String.make pad ' ')
        end
        else begin
          Buffer.add_string buf (String.make pad ' ');
          Buffer.add_string buf cell
        end;
        if i < ncols - 1 then Buffer.add_string buf "  ")
      cells;
    Buffer.add_char buf '\n'
  in
  List.iter emit_row all_rows;
  Buffer.contents buf

let log_bar v =
  let width = 30 in
  let v = max v 1.0 in
  let frac = log10 v /. 3.0 in
  let n = int_of_float (Float.round (frac *. float_of_int width)) in
  let n = max 0 (min width n) in
  String.make n '#'

let print t = print_string (render t); print_newline ()
