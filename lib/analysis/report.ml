module N = Rb_netlist.Netlist
module Json = Rb_util.Json

type t = {
  subject : string;
  n_inputs : int;
  n_keys : int;
  n_gates : int;
  n_outputs : int;
  inferable : Attacks.inference list;
  skewed : (int * float) list;
  dead_gates : int;
  observability : Keydep.summary list;
  gates_removed : int;
  static_resilience : float;
}

let analyze ~subject c =
  let facts = Attacks.facts c in
  let skewed = Probability.skewed_key_gates c in
  let inferable = Attacks.const_prop c facts in
  let _, gates_removed = Attacks.removal c inferable in
  let n_keys = N.n_keys c in
  let static_resilience =
    if n_keys = 0 then 1.0
    else 1.0 -. (float_of_int (List.length inferable) /. float_of_int n_keys)
  in
  {
    subject;
    n_inputs = N.n_inputs c;
    n_keys;
    n_gates = N.n_gates c;
    n_outputs = Array.length (N.outputs c);
    inferable;
    skewed;
    dead_gates = List.length facts.Attacks.dead;
    observability = Keydep.summarize ~distance:facts.Attacks.distance c;
    gates_removed;
    static_resilience;
  }

let to_json r =
  Json.Obj
    [
      ("schema", Json.String "rb-analyze/3");
      ("subject", Json.String r.subject);
      ("n_inputs", Json.Int r.n_inputs);
      ("n_keys", Json.Int r.n_keys);
      ("n_gates", Json.Int r.n_gates);
      ("n_outputs", Json.Int r.n_outputs);
      ( "inferable",
        Json.List
          (List.map
             (fun (i : Attacks.inference) ->
               Json.Obj
                 [
                   ("bit", Json.Int i.Attacks.bit);
                   ("value", Json.Bool i.Attacks.value);
                   ("via", Json.String i.Attacks.via);
                 ])
             r.inferable) );
      ( "skewed_key_gates",
        Json.List
          (List.map
             (fun (gate, p) ->
               Json.Obj
                 [ ("gate", Json.Int gate); ("probability", Json.float_or_string p) ])
             r.skewed) );
      ("dead_gates", Json.Int r.dead_gates);
      ( "observability",
        Json.List
          (List.map
             (fun (o : Keydep.summary) ->
               Json.Obj
                 [
                   ("key_bit", Json.Int o.key_bit);
                   ("outputs_reached", Json.Int o.outputs_reached);
                   ( "min_depth",
                     match o.min_output_depth with
                     | Some d -> Json.Int d
                     | None -> Json.Null );
                   ("cone_gates", Json.Int o.cone_gates);
                 ])
             r.observability) );
      ("gates_removed", Json.Int r.gates_removed);
      ("static_resilience", Json.float_or_string r.static_resilience);
    ]

let pp fmt r =
  let open Format in
  fprintf fmt "@[<v>%s: %d inputs, %d keys, %d gates, %d outputs@," r.subject
    r.n_inputs r.n_keys r.n_gates r.n_outputs;
  fprintf fmt "  inferable key bits : %d" (List.length r.inferable);
  if r.inferable <> [] then begin
    fprintf fmt " (";
    List.iteri
      (fun i (inf : Attacks.inference) ->
        if i > 0 then fprintf fmt ", ";
        fprintf fmt "k%d=%d via %s" inf.Attacks.bit
          (if inf.Attacks.value then 1 else 0)
          inf.Attacks.via)
      r.inferable;
    fprintf fmt ")"
  end;
  fprintf fmt "@,";
  fprintf fmt "  skewed key gates   : %d" (List.length r.skewed);
  if r.skewed <> [] then begin
    fprintf fmt " (";
    List.iteri
      (fun i (g, p) ->
        if i > 0 then fprintf fmt ", ";
        fprintf fmt "g%d p=%.3f" g p)
      r.skewed;
    fprintf fmt ")"
  end;
  fprintf fmt "@,";
  fprintf fmt "  dead gates         : %d@," r.dead_gates;
  fprintf fmt "  removable gates    : %d@," r.gates_removed;
  let mute =
    List.length (List.filter (fun o -> o.Keydep.min_output_depth = None) r.observability)
  in
  let depths = List.filter_map (fun o -> o.Keydep.min_output_depth) r.observability in
  (match depths with
  | [] -> fprintf fmt "  key observability  : %d mute bits@," mute
  | _ ->
      fprintf fmt "  key observability  : depth %d-%d, %d mute@,"
        (List.fold_left min max_int depths)
        (List.fold_left max 0 depths)
        mute);
  fprintf fmt "  static resilience  : %.3f" r.static_resilience;
  fprintf fmt "@]"
