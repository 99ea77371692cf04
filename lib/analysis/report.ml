module N = Rb_netlist.Netlist
module Limits = Rb_util.Limits
module Json = Rb_util.Json

type key_observability = {
  key_bit : int;
  outputs_reached : int;
  min_depth : int option;
  cone_gates : int;
}

type t = {
  subject : string;
  n_inputs : int;
  n_keys : int;
  n_gates : int;
  n_outputs : int;
  inferable : Attacks.inference list;
  skewed : (int * float) list;
  dead_gates : int;
  cycles : int;
  cyclic_nets : int;
  observability : key_observability list;
  gates_removed : int;
  static_resilience : float;
  stopped : Limits.reason option;
}

let analyze ?limit ~subject c =
  let cone = Engine.output_cone c in
  let base = N.n_inputs c + N.n_keys c in
  let dead_gates = ref 0 in
  for i = 0 to N.n_gates c - 1 do
    if not cone.(base + i) then incr dead_gates
  done;
  let cyc = Cycles.find c in
  let cyclic_nets =
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 cyc.Cycles.cyclic
  in
  let skewed = Probability.skewed_key_gates c in
  let observability =
    List.map
      (fun (s : Keydep.summary) ->
        {
          key_bit = s.Keydep.key_bit;
          outputs_reached = List.length s.Keydep.outputs_reached;
          min_depth = s.Keydep.min_output_depth;
          cone_gates = s.Keydep.cone_gates;
        })
      (Keydep.summarize c)
  in
  (* Both attacks run through [Attacks.run] so their instrumented
     counters land in every metrics snapshot; const-prop's
     inferences are authoritative (removal re-derives the same set). *)
  let cp = Attacks.run ?limit Attacks.Const_prop c in
  let removal = Attacks.run ?limit Attacks.Removal c in
  let inferable = cp.Attacks.inferred in
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
    dead_gates = !dead_gates;
    cycles = Cycles.count cyc;
    cyclic_nets;
    observability;
    gates_removed = removal.Attacks.gates_removed;
    static_resilience;
    stopped =
      (match cp.Attacks.stopped with
      | Some _ as s -> s
      | None -> removal.Attacks.stopped);
  }

let to_json r =
  Json.Obj
    [
      ("schema", Json.String "rb-analyze/1");
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
      ("cycles", Json.Int r.cycles);
      ("cyclic_nets", Json.Int r.cyclic_nets);
      ( "observability",
        Json.List
          (List.map
             (fun o ->
               Json.Obj
                 [
                   ("key_bit", Json.Int o.key_bit);
                   ("outputs_reached", Json.Int o.outputs_reached);
                   ( "min_depth",
                     match o.min_depth with
                     | Some d -> Json.Int d
                     | None -> Json.Null );
                   ("cone_gates", Json.Int o.cone_gates);
                 ])
             r.observability) );
      ("gates_removed", Json.Int r.gates_removed);
      ("static_resilience", Json.float_or_string r.static_resilience);
      ( "stopped",
        match r.stopped with
        | Some reason -> Json.String (Limits.reason_label reason)
        | None -> Json.Null );
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
  fprintf fmt "  combinational SCCs : %d (%d nets)@," r.cycles r.cyclic_nets;
  fprintf fmt "  removable gates    : %d@," r.gates_removed;
  let mute =
    List.length (List.filter (fun o -> o.min_depth = None) r.observability)
  in
  let depths = List.filter_map (fun o -> o.min_depth) r.observability in
  (match depths with
  | [] -> fprintf fmt "  key observability  : %d mute bits@," mute
  | _ ->
      fprintf fmt "  key observability  : depth %d-%d, %d mute@,"
        (List.fold_left min max_int depths)
        (List.fold_left max 0 depths)
        mute);
  fprintf fmt "  static resilience  : %.3f" r.static_resilience;
  (match r.stopped with
  | Some reason -> fprintf fmt "@,  (partial: stopped on %s)" (Limits.reason_label reason)
  | None -> ());
  fprintf fmt "@]"
