type severity = Error | Warning

type location =
  | Gate of int
  | Key_input of int
  | Output of int
  | Fu of int
  | Whole_design

type t = {
  rule : string;
  severity : severity;
  location : location;
  message : string;
  hint : string option;
}

let make severity ?hint ~rule location message = { rule; severity; location; message; hint }
let error ?hint ~rule location message = make Error ?hint ~rule location message
let warning ?hint ~rule location message = make Warning ?hint ~rule location message

let severity_label = function Error -> "error" | Warning -> "warning"

let location_label = function
  | Gate g -> Printf.sprintf "gate %d" g
  | Key_input k -> Printf.sprintf "key input %d" k
  | Output o -> Printf.sprintf "output %d" o
  | Fu f -> Printf.sprintf "FU %d" f
  | Whole_design -> "design"

let severity_rank = function Error -> 0 | Warning -> 1

let location_rank = function
  | Whole_design -> (0, 0)
  | Gate g -> (1, g)
  | Key_input k -> (2, k)
  | Output o -> (3, o)
  | Fu f -> (4, f)

let compare a b =
  match Int.compare (severity_rank a.severity) (severity_rank b.severity) with
  | 0 ->
    (match String.compare a.rule b.rule with
     | 0 ->
       (match Stdlib.compare (location_rank a.location) (location_rank b.location) with
        | 0 -> String.compare a.message b.message
        | c -> c)
     | c -> c)
  | c -> c

let pp fmt t =
  Format.fprintf fmt "%s[%s] %s: %s" (severity_label t.severity) t.rule
    (location_label t.location) t.message;
  match t.hint with
  | Some h -> Format.fprintf fmt "@,    hint: %s" h
  | None -> ()
