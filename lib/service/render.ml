module Json = Rb_util.Json
module Table = Rb_util.Table
module Config = Rb_locking.Config
module Scheme = Rb_locking.Scheme
module Dfg = Rb_dfg.Dfg

(* ----------------------------------------------------------------- json *)

let json_of_config config =
  Json.Obj
    [
      ("scheme", Json.String (Scheme.name (Config.scheme config)));
      ( "locks",
        Json.List
          (List.map
             (fun fu ->
               Json.Obj
                 [
                   ("fu", Json.Int fu);
                   ( "minterms",
                     Json.List
                       (List.map
                          (fun m ->
                            let a, b = Rb_dfg.Minterm.unpack m in
                            Json.List [ Json.Int a; Json.Int b ])
                          (Rb_dfg.Minterm.Set.elements (Config.minterms_of config fu)))
                   );
                 ])
             (Config.locked_fus config)) );
      ("lambda_per_fu", Json.float_or_string (Config.lambda_per_fu config));
    ]

let json_of_attack (r : Outcome.attack_report) =
  let outcome_fields =
    match r.Outcome.outcome with
    | Outcome.Broken { iterations; key_correct; key } ->
      [
        ("outcome", Json.String "broken");
        ("iterations", Json.Int iterations);
        ("key_correct", Json.Bool key_correct);
        ("key", Json.String key);
      ]
    | Outcome.Budget_exceeded { iterations } ->
      [ ("outcome", Json.String "budget-exceeded"); ("iterations", Json.Int iterations) ]
    | Outcome.Solver_limit { iterations; reason } ->
      [
        ("outcome", Json.String "solver-limit");
        ("iterations", Json.Int iterations);
        ("reason", Json.String (Rb_util.Limits.reason_label reason));
      ]
  in
  Json.Obj (("description", Json.String r.Outcome.description) :: outcome_fields)

let result_to_json (o : Outcome.t) =
  match o with
  | Outcome.Benchmarks { rows; binders } ->
    Json.Obj
      [
        ( "benchmarks",
          Json.List
            (List.map
               (fun { Outcome.name; source; adds; muls; cycles } ->
                 Json.Obj
                   [
                     ("name", Json.String name);
                     ("source", Json.String source);
                     ("adds", Json.Int adds);
                     ("muls", Json.Int muls);
                     ("cycles", Json.Int cycles);
                   ])
               rows) );
        ("binders", Json.List (List.map (fun (n, _) -> Json.String n) binders));
      ]
  | Outcome.Bound r ->
    let report = r.Outcome.report in
    Json.Obj
      [
        ("benchmark", Json.String r.Outcome.benchmark);
        ("binder", Json.String r.Outcome.binder);
        ("kind", Json.String (Dfg.kind_label r.Outcome.kind));
        ("config", json_of_config r.Outcome.config);
        ("expected_errors", Json.Int r.Outcome.expected_errors);
        ( "measured",
          Json.Obj
            [
              ("error_events", Json.Int report.Rb_sim.Exec.error_events);
              ("samples", Json.Int report.Rb_sim.Exec.samples);
              ("corrupted_samples", Json.Int report.Rb_sim.Exec.corrupted_samples);
              ("max_burst_cycles", Json.Int report.Rb_sim.Exec.max_consecutive_cycles);
            ] );
        ( "overhead",
          Json.Obj
            [
              ("registers", Json.Int r.Outcome.registers);
              ("switching_rate", Json.float_or_string r.Outcome.switching_rate);
            ] );
      ]
  | Outcome.Linted reports -> Json.List (List.map Rb_lint.Report.json reports)
  | Outcome.Analyzed reports ->
    Json.Obj
      [
        ("schema", Json.String "rb-analyze/3");
        ("reports", Json.List (List.map Rb_analysis.Report.to_json reports));
      ]
  | Outcome.Attacked r -> json_of_attack r
  | Outcome.Text text -> Json.Obj [ ("text", Json.String text) ]

(* ----------------------------------------------------------------- text *)

let with_buffer f =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let benchmarks_text rows binders =
  let table =
    Table.create ~title:"MediaBench-derived benchmarks (Sec. VI)"
      ~columns:[ "source"; "adds"; "muls"; "cycles" ]
  in
  List.iter
    (fun { Outcome.name; source; adds; muls; cycles } ->
      Table.add_text_row table ~label:name
        ~cells:[ source; string_of_int adds; string_of_int muls; string_of_int cycles ])
    rows;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Table.render table);
  Buffer.add_string buf "\n";
  Buffer.add_string buf "\nregistered binders:\n";
  List.iter
    (fun (name, description) ->
      Buffer.add_string buf (Printf.sprintf "  %-10s %s\n" name description))
    binders;
  Buffer.contents buf

let bound_text (r : Outcome.bind_report) =
  let report = r.Outcome.report in
  with_buffer (fun f ->
      Format.fprintf f "binder: %s@." r.Outcome.binder;
      Format.fprintf f "locking: %a@." Config.pp r.Outcome.config;
      Format.fprintf f "predicted SAT iterations per FU (Eqn. 1): %.0f@."
        (Config.lambda_per_fu r.Outcome.config);
      Format.fprintf f "expected application errors (Eqn. 2): %d@."
        r.Outcome.expected_errors;
      Format.fprintf f "measured wrong-key error events: %d over %d samples@."
        report.Rb_sim.Exec.error_events report.Rb_sim.Exec.samples;
      Format.fprintf f "corrupted samples: %d, longest error burst: %d cycles@."
        report.Rb_sim.Exec.corrupted_samples report.Rb_sim.Exec.max_consecutive_cycles;
      Format.fprintf f "registers: %d, switching rate: %.3f@." r.Outcome.registers
        r.Outcome.switching_rate)

let attacked_text ~wall_s (r : Outcome.attack_report) =
  with_buffer (fun f ->
      Format.fprintf f "locked circuit: %s, %s@." r.Outcome.description r.Outcome.stats;
      match r.Outcome.outcome with
      | Outcome.Broken { iterations; key_correct; key } ->
        Format.fprintf f "broken in %d DIP iterations (%.2fs); recovered key %s %s@."
          iterations wall_s key
          (if key_correct then "is functionally correct" else "FAILS verification")
      | Outcome.Budget_exceeded { iterations } ->
        Format.fprintf f "survived %d iterations (%.2fs)@." iterations wall_s
      | Outcome.Solver_limit { iterations; reason } ->
        Format.fprintf f "solver %s budget exhausted after %d iterations (%.2fs)@."
          (Rb_util.Limits.reason_label reason) iterations wall_s)

let to_text ?(attack_wall_s = 0.) (o : Outcome.t) =
  match o with
  | Outcome.Benchmarks { rows; binders } -> benchmarks_text rows binders
  | Outcome.Text text -> text
  | Outcome.Bound r -> bound_text r
  | Outcome.Linted reports ->
    with_buffer (fun f ->
        List.iter (fun r -> Format.fprintf f "%a@." Rb_lint.Report.pp r) reports)
  | Outcome.Analyzed reports ->
    with_buffer (fun f ->
        List.iter (fun r -> Format.fprintf f "%a@." Rb_analysis.Report.pp r) reports)
  | Outcome.Attacked r -> attacked_text ~wall_s:attack_wall_s r

let print ?attack_wall_s format o =
  match format with
  | `Text -> print_string (to_text ?attack_wall_s o)
  | `Json -> print_endline (Json.to_string_pretty (result_to_json o))
