module Json = Rb_util.Json
module Dfg = Rb_dfg.Dfg

type scheme = Rll | Pf | Antisat | Permnet

let scheme_label = function
  | Rll -> "rll"
  | Pf -> "pf"
  | Antisat -> "antisat"
  | Permnet -> "permnet"

let scheme_of_label = function
  | "rll" -> Some Rll
  | "pf" -> Some Pf
  | "antisat" -> Some Antisat
  | "permnet" -> Some Permnet
  | _ -> None

type custom_source = Dfg_source of string | Expr_source of string

type t =
  | List_benchmarks
  | Show of { benchmark : string; seed : int }
  | Bind of {
      benchmark : string;
      seed : int;
      binder : string;
      kind : Dfg.op_kind;
      locked_fus : int;
      minterms_per_fu : int;
    }
  | Lint of {
      benchmark : string option;
      seed : int;
      locked_fus : int;
      minterms_per_fu : int;
      min_lambda : float option;
    }
  | Analyze of { scheme : scheme option; width : int; strength : int; seed : int }
  | Attack of {
      scheme : scheme;
      width : int;
      strength : int;
      seed : int;
      max_iterations : int;
      portfolio : int;
    }
  | Custom of {
      source : custom_source;
      kind : Dfg.op_kind;
      locked_fus : int;
      minterms_per_fu : int;
      trace_length : int;
      seed : int;
    }
  | Export_cnf of { scheme : scheme; width : int; strength : int; miter : bool; seed : int }
  | Export_dfg of { benchmark : string }
  | Dot of { benchmark : string }

let op = function
  | List_benchmarks -> "list"
  | Show _ -> "show"
  | Bind _ -> "bind"
  | Lint _ -> "lint"
  | Analyze _ -> "analyze"
  | Attack _ -> "attack"
  | Custom _ -> "custom"
  | Export_cnf _ -> "export-cnf"
  | Export_dfg _ -> "export-dfg"
  | Dot _ -> "dot"

(* ------------------------------------------------------------- encoding *)

(* Every field is always emitted (None as Null), in one fixed order,
   so a job's encoding — and therefore its digest — depends neither on
   which fields the sender spelled out nor on their order. *)
let to_json t =
  let obj fields = Json.Obj (("op", Json.String (op t)) :: fields) in
  match t with
  | List_benchmarks -> obj []
  | Show { benchmark; seed } ->
    obj [ ("benchmark", Json.String benchmark); ("seed", Json.Int seed) ]
  | Bind { benchmark; seed; binder; kind; locked_fus; minterms_per_fu } ->
    obj
      [
        ("benchmark", Json.String benchmark);
        ("seed", Json.Int seed);
        ("binder", Json.String binder);
        ("kind", Json.String (Dfg.kind_label kind));
        ("locked_fus", Json.Int locked_fus);
        ("minterms_per_fu", Json.Int minterms_per_fu);
      ]
  | Lint { benchmark; seed; locked_fus; minterms_per_fu; min_lambda } ->
    obj
      [
        ( "benchmark",
          match benchmark with None -> Json.Null | Some b -> Json.String b );
        ("seed", Json.Int seed);
        ("locked_fus", Json.Int locked_fus);
        ("minterms_per_fu", Json.Int minterms_per_fu);
        ( "min_lambda",
          match min_lambda with None -> Json.Null | Some l -> Json.Float l );
      ]
  | Analyze { scheme; width; strength; seed } ->
    obj
      [
        ( "scheme",
          Json.String (match scheme with None -> "all" | Some s -> scheme_label s) );
        ("width", Json.Int width);
        ("strength", Json.Int strength);
        ("seed", Json.Int seed);
      ]
  | Attack { scheme; width; strength; seed; max_iterations; portfolio } ->
    obj
      [
        ("scheme", Json.String (scheme_label scheme));
        ("width", Json.Int width);
        ("strength", Json.Int strength);
        ("seed", Json.Int seed);
        ("max_iterations", Json.Int max_iterations);
        ("portfolio", Json.Int portfolio);
      ]
  | Custom { source; kind; locked_fus; minterms_per_fu; trace_length; seed } ->
    let format, text =
      match source with
      | Dfg_source s -> ("dfg-text", s)
      | Expr_source s -> ("expr", s)
    in
    obj
      [
        ("format", Json.String format);
        ("text", Json.String text);
        ("kind", Json.String (Dfg.kind_label kind));
        ("locked_fus", Json.Int locked_fus);
        ("minterms_per_fu", Json.Int minterms_per_fu);
        ("trace_length", Json.Int trace_length);
        ("seed", Json.Int seed);
      ]
  | Export_cnf { scheme; width; strength; miter; seed } ->
    obj
      [
        ("scheme", Json.String (scheme_label scheme));
        ("width", Json.Int width);
        ("strength", Json.Int strength);
        ("miter", Json.Bool miter);
        ("seed", Json.Int seed);
      ]
  | Export_dfg { benchmark } -> obj [ ("benchmark", Json.String benchmark) ]
  | Dot { benchmark } -> obj [ ("benchmark", Json.String benchmark) ]

(* ----------------------------------------------------------- validation *)

let invalid fmt = Printf.ksprintf (fun m -> Error (Error.make Error.Invalid_request m)) fmt

let ( let* ) = Result.bind

let range name lo hi x =
  if x < lo || x > hi then invalid "%s must be in %d..%d" name lo hi else Ok ()

let netlist_scheme = function
  | Rll | Pf | Permnet -> Ok ()
  | Antisat -> invalid "scheme must be rll, pf, or permnet"

let validate = function
  | List_benchmarks | Show _ | Export_dfg _ | Dot _ -> Ok ()
  | Bind { locked_fus; minterms_per_fu; _ } ->
    let* () = range "locked-fus" 1 64 locked_fus in
    range "minterms" 1 64 minterms_per_fu
  | Lint { locked_fus; minterms_per_fu; _ } ->
    let* () = range "locked-fus" 1 64 locked_fus in
    range "minterms" 1 64 minterms_per_fu
  | Analyze { width; strength; _ } ->
    let* () = range "width" 2 8 width in
    range "strength" 1 256 strength
  | Attack { scheme; width; strength; max_iterations; portfolio; _ } ->
    let* () = netlist_scheme scheme in
    let* () = range "width" 2 8 width in
    let* () = range "strength" 1 256 strength in
    let* () = range "max-iterations" 1 10_000_000 max_iterations in
    range "portfolio" 1 64 portfolio
  | Custom { locked_fus; minterms_per_fu; trace_length; _ } ->
    let* () = range "locked-fus" 1 64 locked_fus in
    let* () = range "minterms" 1 64 minterms_per_fu in
    range "trace-length" 1 1_000_000 trace_length
  | Export_cnf { scheme; width; strength; _ } ->
    let* () = netlist_scheme scheme in
    let* () = range "width" 2 10 width in
    range "strength" 1 256 strength

(* ------------------------------------------------------------- decoding *)

let int_field v name ~default =
  match Json.member name v with
  | None | Some Json.Null -> Ok default
  | Some (Json.Int i) -> Ok i
  | Some _ -> invalid "field %S must be an integer" name

let bool_field v name ~default =
  match Json.member name v with
  | None | Some Json.Null -> Ok default
  | Some (Json.Bool b) -> Ok b
  | Some _ -> invalid "field %S must be a boolean" name

let string_field v name ~default =
  match Json.member name v with
  | None | Some Json.Null -> Ok default
  | Some (Json.String s) -> Ok s
  | Some _ -> invalid "field %S must be a string" name

let required_string v name =
  match Json.member name v with
  | None | Some Json.Null -> invalid "missing required field %S" name
  | Some (Json.String s) -> Ok s
  | Some _ -> invalid "field %S must be a string" name

let opt_string v name =
  match Json.member name v with
  | None | Some Json.Null -> Ok None
  | Some (Json.String s) -> Ok (Some s)
  | Some _ -> invalid "field %S must be a string" name

let opt_number v name =
  match Json.member name v with
  | None | Some Json.Null -> Ok None
  | Some (Json.Float f) -> Ok (Some f)
  | Some (Json.Int i) -> Ok (Some (float_of_int i))
  | Some _ -> invalid "field %S must be a number" name

let kind_field v ~default =
  match Json.member "kind" v with
  | None | Some Json.Null -> Ok default
  | Some (Json.String "add") -> Ok Dfg.Add
  | Some (Json.String "mul") -> Ok Dfg.Mul
  | Some _ -> invalid "field \"kind\" must be \"add\" or \"mul\""

let scheme_field v ~default =
  match Json.member "scheme" v with
  | None | Some Json.Null -> Ok default
  | Some (Json.String s) -> (
    match scheme_of_label s with
    | Some s -> Ok s
    | None -> invalid "unknown scheme %S" s)
  | Some _ -> invalid "field \"scheme\" must be a string"

(* analyze's scheme admits "all" (= every scheme, the CLI default) *)
let scheme_all_field v =
  match Json.member "scheme" v with
  | None | Some Json.Null | Some (Json.String "all") -> Ok None
  | Some (Json.String s) -> (
    match scheme_of_label s with
    | Some s -> Ok (Some s)
    | None -> invalid "unknown scheme %S" s)
  | Some _ -> invalid "field \"scheme\" must be a string"

let decode v =
  let* op =
    match Json.member "op" v with
    | None | Some Json.Null -> invalid "missing required field \"op\""
    | Some (Json.String s) -> Ok s
    | Some _ -> invalid "field \"op\" must be a string"
  in
  match op with
  | "list" -> Ok List_benchmarks
  | "show" ->
    let* benchmark = required_string v "benchmark" in
    let* seed = int_field v "seed" ~default:1789 in
    Ok (Show { benchmark; seed })
  | "bind" ->
    let* benchmark = required_string v "benchmark" in
    let* seed = int_field v "seed" ~default:1789 in
    let* binder = string_field v "binder" ~default:"codesign" in
    let* kind = kind_field v ~default:Dfg.Mul in
    let* locked_fus = int_field v "locked_fus" ~default:2 in
    let* minterms_per_fu = int_field v "minterms_per_fu" ~default:2 in
    Ok (Bind { benchmark; seed; binder; kind; locked_fus; minterms_per_fu })
  | "lint" ->
    let* benchmark = opt_string v "benchmark" in
    let* seed = int_field v "seed" ~default:1789 in
    let* locked_fus = int_field v "locked_fus" ~default:2 in
    let* minterms_per_fu = int_field v "minterms_per_fu" ~default:2 in
    let* min_lambda = opt_number v "min_lambda" in
    Ok (Lint { benchmark; seed; locked_fus; minterms_per_fu; min_lambda })
  | "analyze" ->
    let* scheme = scheme_all_field v in
    let* width = int_field v "width" ~default:4 in
    let* strength = int_field v "strength" ~default:4 in
    let* seed = int_field v "seed" ~default:1789 in
    Ok (Analyze { scheme; width; strength; seed })
  | "attack" ->
    let* scheme = scheme_field v ~default:Pf in
    let* width = int_field v "width" ~default:4 in
    let* strength = int_field v "strength" ~default:2 in
    let* seed = int_field v "seed" ~default:1789 in
    let* max_iterations = int_field v "max_iterations" ~default:20_000 in
    let* portfolio = int_field v "portfolio" ~default:1 in
    Ok (Attack { scheme; width; strength; seed; max_iterations; portfolio })
  | "custom" ->
    let* text = required_string v "text" in
    let* format = string_field v "format" ~default:"dfg-text" in
    let* source =
      match format with
      | "dfg-text" -> Ok (Dfg_source text)
      | "expr" -> Ok (Expr_source text)
      | f -> invalid "field \"format\" must be \"dfg-text\" or \"expr\" (got %S)" f
    in
    let* kind = kind_field v ~default:Dfg.Mul in
    let* locked_fus = int_field v "locked_fus" ~default:2 in
    let* minterms_per_fu = int_field v "minterms_per_fu" ~default:2 in
    let* trace_length = int_field v "trace_length" ~default:256 in
    let* seed = int_field v "seed" ~default:1789 in
    Ok (Custom { source; kind; locked_fus; minterms_per_fu; trace_length; seed })
  | "export-cnf" ->
    let* scheme = scheme_field v ~default:Pf in
    let* width = int_field v "width" ~default:4 in
    let* strength = int_field v "strength" ~default:2 in
    let* miter = bool_field v "miter" ~default:false in
    let* seed = int_field v "seed" ~default:1789 in
    Ok (Export_cnf { scheme; width; strength; miter; seed })
  | "export-dfg" ->
    let* benchmark = required_string v "benchmark" in
    Ok (Export_dfg { benchmark })
  | "dot" ->
    let* benchmark = required_string v "benchmark" in
    Ok (Dot { benchmark })
  | other -> invalid "unknown op %S" other

let of_json v =
  let* job = decode v in
  let* () = validate job in
  Ok job

(* An attack's result is portfolio-invariant by contract (see
   {!Rb_sat.Attack}), so [portfolio] is normalised away: every
   portfolio size shares the portfolio-1 address. The Anti-SAT block
   has no strength parameter, so an antisat analysis shares the
   strength-1 address the same way. *)
let digest t =
  let t =
    match t with
    | Attack a -> Attack { a with portfolio = 1 }
    | Analyze ({ scheme = Some Antisat; _ } as a) -> Analyze { a with strength = 1 }
    | t -> t
  in
  Rb_util.Digest.string (Json.to_string (to_json t))
