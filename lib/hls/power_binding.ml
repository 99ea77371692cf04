let bind schedule allocation ~profile =
  let last_on_fu = Hashtbl.create 16 in
  let weight ~kind:_ ~cycle:_ ~op ~fu =
    match Hashtbl.find_opt last_on_fu fu with
    | None -> 0.0
    | Some prev -> Switching.expected_input_hamming profile prev op
  in
  let on_bound ~op ~fu = Hashtbl.replace last_on_fu fu op in
  Bind_engine.bind ~on_bound ~objective:`Minimize ~weight schedule allocation
