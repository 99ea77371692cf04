let netlist ?(subject = "netlist") c = Report.make ~subject (Netlist_rules.check c)

let locked ?subject (l : Rb_netlist.Lock.locked) =
  let subject =
    match subject with Some s -> s | None -> l.Rb_netlist.Lock.description
  in
  Report.make ~subject (Netlist_rules.check l.Rb_netlist.Lock.circuit)

let rule_binding = "HLS-BIND"

let design ?min_lambda ?candidates ?config ~subject schedule allocation
    ~fu_of_op =
  let bind_diags =
    match Rb_hls.Binding.make schedule allocation ~fu_of_op with
    | (_ : Rb_hls.Binding.t) -> []
    | exception Invalid_argument message ->
      [ Diagnostic.error ~rule:rule_binding Diagnostic.Whole_design message ]
  in
  let lock_diags =
    match config with
    | None -> []
    | Some config -> Locking_rules.check_config ?min_lambda ?candidates config
  in
  Report.make ~subject (bind_diags @ lock_diags)
