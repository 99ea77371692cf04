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
    range "minterms" 1 Rb_core.Codesign.n_candidates minterms_per_fu
  | Lint { locked_fus; minterms_per_fu; _ } ->
    let* () = range "locked-fus" 1 64 locked_fus in
    range "minterms" 1 Rb_core.Codesign.n_candidates minterms_per_fu
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
    let* () = range "minterms" 1 Rb_core.Codesign.n_candidates minterms_per_fu in
    range "trace-length" 1 1_000_000 trace_length
  | Export_cnf { scheme; width; strength; _ } ->
    let* () = netlist_scheme scheme in
    let* () = range "width" 2 10 width in
    range "strength" 1 256 strength

(* ------------------------------------------------------------- decoding *)

(* One reader for every job field: an absent or null field takes
   [absent] ([None] = required), anything else must have the shape
   [conv] accepts. *)
let field v name ~absent conv =
  match (Json.member name v, absent) with
  | (None | Some Json.Null), Some default -> Ok default
  | (None | Some Json.Null), None -> invalid "missing required field %S" name
  | Some x, _ -> conv name x

let must name what = invalid "field %S must be %s" name what

let int name = function Json.Int i -> Ok i | _ -> must name "an integer"
let bool name = function Json.Bool b -> Ok b | _ -> must name "a boolean"
let string name = function Json.String s -> Ok s | _ -> must name "a string"

let number name = function
  | Json.Float f -> Ok f
  | Json.Int i -> Ok (float_of_int i)
  | _ -> must name "a number"

let kind name = function
  | Json.String "add" -> Ok Dfg.Add
  | Json.String "mul" -> Ok Dfg.Mul
  | _ -> must name "\"add\" or \"mul\""

let scheme name = function
  | Json.String s -> (
    match scheme_of_label s with Some s -> Ok s | None -> invalid "unknown scheme %S" s)
  | _ -> must name "a string"

let some conv name x = Result.map Option.some (conv name x)

(* analyze's scheme admits "all" (= every scheme, the CLI default) *)
let scheme_or_all name = function
  | Json.String "all" -> Ok None
  | x -> some scheme name x

let decode v =
  let* op = field v "op" ~absent:None string in
  match op with
  | "list" -> Ok List_benchmarks
  | "show" ->
    let* benchmark = field v "benchmark" ~absent:None string in
    let* seed = field v "seed" ~absent:(Some 1789) int in
    Ok (Show { benchmark; seed })
  | "bind" ->
    let* benchmark = field v "benchmark" ~absent:None string in
    let* seed = field v "seed" ~absent:(Some 1789) int in
    let* binder = field v "binder" ~absent:(Some "codesign") string in
    let* kind = field v "kind" ~absent:(Some Dfg.Mul) kind in
    let* locked_fus = field v "locked_fus" ~absent:(Some 2) int in
    let* minterms_per_fu = field v "minterms_per_fu" ~absent:(Some 2) int in
    Ok (Bind { benchmark; seed; binder; kind; locked_fus; minterms_per_fu })
  | "lint" ->
    let* benchmark = field v "benchmark" ~absent:(Some None) (some string) in
    let* seed = field v "seed" ~absent:(Some 1789) int in
    let* locked_fus = field v "locked_fus" ~absent:(Some 2) int in
    let* minterms_per_fu = field v "minterms_per_fu" ~absent:(Some 2) int in
    let* min_lambda = field v "min_lambda" ~absent:(Some None) (some number) in
    Ok (Lint { benchmark; seed; locked_fus; minterms_per_fu; min_lambda })
  | "analyze" ->
    let* scheme = field v "scheme" ~absent:(Some None) scheme_or_all in
    let* width = field v "width" ~absent:(Some 4) int in
    let* strength = field v "strength" ~absent:(Some 4) int in
    let* seed = field v "seed" ~absent:(Some 1789) int in
    Ok (Analyze { scheme; width; strength; seed })
  | "attack" ->
    let* scheme = field v "scheme" ~absent:(Some Pf) scheme in
    let* width = field v "width" ~absent:(Some 4) int in
    let* strength = field v "strength" ~absent:(Some 2) int in
    let* seed = field v "seed" ~absent:(Some 1789) int in
    let* max_iterations = field v "max_iterations" ~absent:(Some 20_000) int in
    let* portfolio = field v "portfolio" ~absent:(Some 1) int in
    Ok (Attack { scheme; width; strength; seed; max_iterations; portfolio })
  | "custom" ->
    let* text = field v "text" ~absent:None string in
    let* format = field v "format" ~absent:(Some "dfg-text") string in
    let* source =
      match format with
      | "dfg-text" -> Ok (Dfg_source text)
      | "expr" -> Ok (Expr_source text)
      | f -> invalid "field \"format\" must be \"dfg-text\" or \"expr\" (got %S)" f
    in
    let* kind = field v "kind" ~absent:(Some Dfg.Mul) kind in
    let* locked_fus = field v "locked_fus" ~absent:(Some 2) int in
    let* minterms_per_fu = field v "minterms_per_fu" ~absent:(Some 2) int in
    let* trace_length = field v "trace_length" ~absent:(Some 256) int in
    let* seed = field v "seed" ~absent:(Some 1789) int in
    Ok (Custom { source; kind; locked_fus; minterms_per_fu; trace_length; seed })
  | "export-cnf" ->
    let* scheme = field v "scheme" ~absent:(Some Pf) scheme in
    let* width = field v "width" ~absent:(Some 4) int in
    let* strength = field v "strength" ~absent:(Some 2) int in
    let* miter = field v "miter" ~absent:(Some false) bool in
    let* seed = field v "seed" ~absent:(Some 1789) int in
    Ok (Export_cnf { scheme; width; strength; miter; seed })
  | "export-dfg" ->
    let* benchmark = field v "benchmark" ~absent:None string in
    Ok (Export_dfg { benchmark })
  | "dot" ->
    let* benchmark = field v "benchmark" ~absent:None string in
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
