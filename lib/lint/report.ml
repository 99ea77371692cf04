type t = { subject : string; diagnostics : Diagnostic.t list }

let make ~subject diagnostics =
  { subject; diagnostics = List.sort Diagnostic.compare diagnostics }

let subject t = t.subject
let diagnostics t = t.diagnostics

let errors t =
  List.filter (fun d -> d.Diagnostic.severity = Diagnostic.Error) t.diagnostics

let error_count t = List.length (errors t)

let warning_count t =
  List.length
    (List.filter (fun d -> d.Diagnostic.severity = Diagnostic.Warning) t.diagnostics)

let is_clean t = error_count t = 0

let total_errors reports = List.fold_left (fun acc r -> acc + error_count r) 0 reports

let pp fmt t =
  let e = error_count t and w = warning_count t in
  if t.diagnostics = [] then Format.fprintf fmt "%s: clean" t.subject
  else begin
    Format.fprintf fmt "@[<v>%s: %d error%s, %d warning%s" t.subject e
      (if e = 1 then "" else "s")
      w
      (if w = 1 then "" else "s");
    List.iter (fun d -> Format.fprintf fmt "@,  @[<v>%a@]" Diagnostic.pp d) t.diagnostics;
    Format.fprintf fmt "@]"
  end

(* ------------------------------------------------------------- JSON *)

module Json = Rb_util.Json

let json_of_location loc =
  let obj kind index =
    Json.Obj [ ("kind", Json.String kind); ("index", Json.Int index) ]
  in
  match loc with
  | Diagnostic.Gate g -> obj "gate" g
  | Diagnostic.Key_input k -> obj "key_input" k
  | Diagnostic.Output o -> obj "output" o
  | Diagnostic.Fu f -> obj "fu" f
  | Diagnostic.Whole_design -> Json.Obj [ ("kind", Json.String "design") ]

let json_of_diagnostic d =
  Json.Obj
    ([
       ("rule", Json.String d.Diagnostic.rule);
       ("severity", Json.String (Diagnostic.severity_label d.Diagnostic.severity));
       ("location", json_of_location d.Diagnostic.location);
       ("message", Json.String d.Diagnostic.message);
     ]
    @ match d.Diagnostic.hint with
      | Some h -> [ ("hint", Json.String h) ]
      | None -> [])

let json t =
  Json.Obj
    [
      ("subject", Json.String t.subject);
      ("errors", Json.Int (error_count t));
      ("warnings", Json.Int (warning_count t));
      ("diagnostics", Json.List (List.map json_of_diagnostic t.diagnostics));
    ]

let to_json t = Json.to_string (json t)
