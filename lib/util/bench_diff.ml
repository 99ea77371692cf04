type kind =
  | Missing_section
  | Missing_counter
  | New_counter
  | Counter_drift
  | Wall_regression

type violation = {
  section : string;
  metric : string;
  kind : kind;
  baseline : float;
  current : float;
}

type report = {
  violations : violation list;
  sections_checked : int;
  counters_checked : int;
  additions : string list;
  walls : (string * float * float) list;
  total_wall : float * float;
}

let describe v =
  match v.kind with
  | Missing_section -> Printf.sprintf "%s: section missing from current run" v.section
  | Missing_counter ->
    Printf.sprintf "%s: counter %s missing from current run (baseline %.0f)"
      v.section v.metric v.baseline
  | New_counter ->
    Printf.sprintf
      "%s: counter %s not in baseline (current %.0f) — refresh the baseline"
      v.section v.metric v.current
  | Counter_drift ->
    Printf.sprintf "%s: counter %s drifted %.0f -> %.0f" v.section v.metric
      v.baseline v.current
  | Wall_regression ->
    Printf.sprintf "%s: summed wall-clock of the shared sections regressed %.3fs -> %.3fs"
      v.section v.baseline v.current

(* --------------------------------------------------- document decoding *)

type section = {
  name : string;
  wall_s : float;
  counters : (string * float) list;
}

exception Shape of string

let shape fmt = Printf.ksprintf (fun msg -> raise (Shape msg)) fmt

let number ~what = function
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | _ -> shape "%s: expected a number" what

let field ~what name j =
  match Json.member name j with
  | Some v -> v
  | None -> shape "%s: missing field %S" what name

let decode_section j =
  let name =
    match field ~what:"section" "section" j with
    | Json.String s -> s
    | _ -> shape "section: name is not a string"
  in
  let what = "section " ^ name in
  let wall_s = number ~what:(what ^ " wall_s") (field ~what "wall_s" j) in
  let counters =
    match field ~what "counters" j with
    | Json.Obj fields ->
      List.map (fun (k, v) -> (k, number ~what:(what ^ " counter " ^ k) v)) fields
    | _ -> shape "%s: counters is not an object" what
  in
  { name; wall_s; counters }

let decode_doc ~label j =
  (match Json.member "schema" j with
  | Some (Json.String "rb-bench/1") -> ()
  | Some (Json.String other) -> shape "%s: unsupported schema %S" label other
  | _ -> shape "%s: not a BENCH.json document (no \"schema\")" label);
  match field ~what:label "sections" j with
  | Json.List sections -> List.map decode_section sections
  | _ -> shape "%s: sections is not a list" label

(* ------------------------------------------------------------- compare *)

let compare_docs ?(wall_tol = 0.5) ~baseline ~current () =
  if wall_tol < 0.0 then
    invalid_arg "Bench_diff.compare_docs: negative tolerance";
  match
    let base = decode_doc ~label:"baseline" baseline in
    let cur = decode_doc ~label:"current" current in
    (base, cur)
  with
  | exception Shape msg -> Error msg
  | base, cur ->
    let violations = ref [] in
    let additions = ref [] in
    let counters_checked = ref 0 in
    let walls = ref [] in
    let flag section metric kind baseline current =
      violations := { section; metric; kind; baseline; current } :: !violations
    in
    List.iter
      (fun b ->
        match List.find_opt (fun c -> c.name = b.name) cur with
        | None -> flag b.name "" Missing_section 0.0 0.0
        | Some c ->
          walls := (b.name, b.wall_s, c.wall_s) :: !walls;
          List.iter
            (fun (key, bv) ->
              incr counters_checked;
              match List.assoc_opt key c.counters with
              | None -> flag b.name key Missing_counter bv 0.0
              | Some cv ->
                if cv <> bv then flag b.name key Counter_drift bv cv)
            b.counters;
          (* A counter only in the current run fails the gate:
             instrumentation changed without a baseline refresh. *)
          List.iter
            (fun (key, cv) ->
              if not (List.mem_assoc key b.counters) then
                flag b.name key New_counter 0.0 cv)
            c.counters)
      base;
    List.iter
      (fun c ->
        if not (List.exists (fun b -> b.name = c.name) base) then
          additions := c.name :: !additions)
      cur;
    (* Wall is judged once, on the sum: a millisecond section has no
       room for a GC slice or a descheduled domain, the sum does. *)
    let ((base_wall, cur_wall) as total_wall) =
      List.fold_left (fun (sb, sc) (_, b, c) -> (sb +. b, sc +. c)) (0.0, 0.0) !walls
    in
    if cur_wall > base_wall *. (1.0 +. wall_tol) then
      flag "total" "wall_s" Wall_regression base_wall cur_wall;
    Ok
      {
        violations = List.rev !violations;
        sections_checked = List.length base;
        counters_checked = !counters_checked;
        additions = List.rev !additions;
        walls = List.rev !walls;
        total_wall;
      }

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> Ok contents
  | exception Sys_error msg -> Error msg

let compare_files ?wall_tol ~baseline ~current () =
  let ( let* ) = Result.bind in
  let load label path =
    let* contents =
      Result.map_error (Printf.sprintf "%s: %s" label) (read_file path)
    in
    Result.map_error (Printf.sprintf "%s (%s): %s" label path) (Json.of_string contents)
  in
  let* baseline = load "baseline" baseline in
  let* current = load "current" current in
  compare_docs ?wall_tol ~baseline ~current ()
