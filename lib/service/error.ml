module Json = Rb_util.Json

type code =
  | Invalid_request
  | Unknown_target
  | Infeasible
  | Limit
  | Overloaded
  | Internal

type t = { code : code; message : string }

let make code message = { code; message }

let code_label = function
  | Invalid_request -> "invalid-request"
  | Unknown_target -> "unknown-target"
  | Infeasible -> "infeasible"
  | Limit -> "limit"
  | Overloaded -> "overloaded"
  | Internal -> "internal"

let to_json t =
  Json.Obj
    [ ("code", Json.String (code_label t.code)); ("message", Json.String t.message) ]
