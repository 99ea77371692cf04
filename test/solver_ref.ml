(* The seed solver, verbatim except for the removal of the Metrics
   and Limits plumbing. Do not optimize this file: its value is
   being the independently-written implementation the fast solver is
   differentially tested against. *)

type result = Sat | Unsat

let lidx lit = if lit > 0 then 2 * lit else (2 * -lit) + 1

type t = {
  mutable nvars : int;
  mutable clauses : int array array;
  mutable n_clauses : int;
  mutable watches : int list array; (* lidx -> clause indices *)
  mutable values : int array; (* var -> -1 unassigned / 0 false / 1 true *)
  mutable level : int array;
  mutable reason : int array; (* var -> clause index or -1 *)
  mutable phase : bool array;
  mutable activity : float array;
  mutable var_inc : float;
  mutable trail : int array; (* assigned literals in order *)
  mutable trail_size : int;
  mutable trail_lim : int array; (* start of each decision level in trail *)
  mutable n_levels : int;
  mutable qhead : int;
  mutable root_unsat : bool;
  mutable seen : bool array;
}

let create () =
  {
    nvars = 0;
    clauses = Array.make 64 [||];
    n_clauses = 0;
    watches = Array.make 16 [];
    values = Array.make 8 (-1);
    level = Array.make 8 0;
    reason = Array.make 8 (-1);
    phase = Array.make 8 false;
    activity = Array.make 8 0.0;
    var_inc = 1.0;
    trail = Array.make 8 0;
    trail_size = 0;
    trail_lim = Array.make 8 0;
    n_levels = 0;
    qhead = 0;
    root_unsat = false;
    seen = Array.make 8 false;
  }

let grow_int_array arr size default =
  if Array.length arr >= size then arr
  else begin
    let bigger = Array.make (max size (2 * Array.length arr)) default in
    Array.blit arr 0 bigger 0 (Array.length arr);
    bigger
  end

let grow_generic arr size default =
  if Array.length arr >= size then arr
  else begin
    let bigger = Array.make (max size (2 * Array.length arr)) default in
    Array.blit arr 0 bigger 0 (Array.length arr);
    bigger
  end

let new_var s =
  s.nvars <- s.nvars + 1;
  let v = s.nvars in
  let cap = v + 1 in
  s.values <- grow_int_array s.values cap (-1);
  s.level <- grow_int_array s.level cap 0;
  s.reason <- grow_int_array s.reason cap (-1);
  s.phase <- grow_generic s.phase cap false;
  s.activity <- grow_generic s.activity cap 0.0;
  s.seen <- grow_generic s.seen cap false;
  s.trail <- grow_int_array s.trail (v + 1) 0;
  s.watches <- grow_generic s.watches ((2 * cap) + 2) [];
  s.values.(v) <- -1;
  s.reason.(v) <- -1;
  v

let new_vars s n =
  if n <= 0 then invalid_arg "Solver_ref.new_vars";
  let first = new_var s in
  for _ = 2 to n do
    ignore (new_var s)
  done;
  first

let lit_value s lit =
  let v = s.values.(abs lit) in
  if v = -1 then -1 else if lit > 0 then v else 1 - v

let current_level s = s.n_levels

let enqueue s lit reason_idx =
  let v = abs lit in
  s.values.(v) <- (if lit > 0 then 1 else 0);
  s.level.(v) <- current_level s;
  s.reason.(v) <- reason_idx;
  s.trail.(s.trail_size) <- lit;
  s.trail_size <- s.trail_size + 1

let push_clause s arr =
  if s.n_clauses = Array.length s.clauses then begin
    let bigger = Array.make (2 * Array.length s.clauses) [||] in
    Array.blit s.clauses 0 bigger 0 s.n_clauses;
    s.clauses <- bigger
  end;
  s.clauses.(s.n_clauses) <- arr;
  s.n_clauses <- s.n_clauses + 1;
  s.n_clauses - 1

let watch s lit ci = s.watches.(lidx lit) <- ci :: s.watches.(lidx lit)

let attach s ci =
  let c = s.clauses.(ci) in
  watch s c.(0) ci;
  watch s c.(1) ci

let add_clause s lits =
  List.iter
    (fun lit ->
      let v = abs lit in
      if v < 1 || v > s.nvars then invalid_arg "Solver_ref.add_clause: unknown variable")
    lits;
  if not s.root_unsat then begin
    assert (current_level s = 0);
    let lits = List.sort_uniq Int.compare lits in
    let tautology = List.exists (fun l -> List.mem (-l) lits) lits in
    let satisfied = List.exists (fun l -> lit_value s l = 1) lits in
    if not (tautology || satisfied) then begin
      let active = List.filter (fun l -> lit_value s l = -1) lits in
      match active with
      | [] -> s.root_unsat <- true
      | [ unit_lit ] -> enqueue s unit_lit (-1)
      | _ :: _ :: _ ->
        let arr = Array.of_list active in
        let ci = push_clause s arr in
        attach s ci
    end
  end

let var_decay = 1.0 /. 0.95

let bump_var s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 1 to s.nvars do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end

let decay_activity s = s.var_inc <- s.var_inc *. var_decay

let propagate s =
  let conflict = ref (-1) in
  while !conflict = -1 && s.qhead < s.trail_size do
    let lit = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    let false_lit = -lit in
    let wl = s.watches.(lidx false_lit) in
    s.watches.(lidx false_lit) <- [];
    let rec process = function
      | [] -> ()
      | ci :: rest ->
        let c = s.clauses.(ci) in
        if c.(0) = false_lit then begin
          c.(0) <- c.(1);
          c.(1) <- false_lit
        end;
        if lit_value s c.(0) = 1 then begin
          s.watches.(lidx false_lit) <- ci :: s.watches.(lidx false_lit);
          process rest
        end
        else begin
          let len = Array.length c in
          let rec find i =
            if i >= len then -1 else if lit_value s c.(i) <> 0 then i else find (i + 1)
          in
          let j = find 2 in
          if j >= 0 then begin
            c.(1) <- c.(j);
            c.(j) <- false_lit;
            watch s c.(1) ci;
            process rest
          end
          else begin
            s.watches.(lidx false_lit) <- ci :: s.watches.(lidx false_lit);
            if lit_value s c.(0) = 0 then begin
              List.iter
                (fun ci' ->
                  s.watches.(lidx false_lit) <- ci' :: s.watches.(lidx false_lit))
                rest;
              conflict := ci
            end
            else begin
              enqueue s c.(0) ci;
              process rest
            end
          end
        end
    in
    process wl
  done;
  !conflict

let backtrack s target_level =
  if current_level s > target_level then begin
    let bound = s.trail_lim.(target_level) in
    for i = s.trail_size - 1 downto bound do
      let v = abs s.trail.(i) in
      s.phase.(v) <- s.values.(v) = 1;
      s.values.(v) <- -1;
      s.reason.(v) <- -1
    done;
    s.trail_size <- bound;
    s.qhead <- bound;
    s.n_levels <- target_level
  end

let new_decision_level s =
  s.trail_lim <- grow_int_array s.trail_lim (s.n_levels + 1) 0;
  s.trail_lim.(s.n_levels) <- s.trail_size;
  s.n_levels <- s.n_levels + 1

let analyze s confl =
  let learnt = ref [] in
  let counter = ref 0 in
  let p = ref 0 in
  let index = ref (s.trail_size - 1) in
  let clause_idx = ref confl in
  let finished = ref false in
  while not !finished do
    let c = s.clauses.(!clause_idx) in
    let start = if !p = 0 then 0 else 1 in
    for i = start to Array.length c - 1 do
      let q = c.(i) in
      let v = abs q in
      if (not s.seen.(v)) && s.level.(v) > 0 then begin
        s.seen.(v) <- true;
        bump_var s v;
        if s.level.(v) >= current_level s then incr counter
        else learnt := q :: !learnt
      end
    done;
    let rec next_seen i = if s.seen.(abs s.trail.(i)) then i else next_seen (i - 1) in
    index := next_seen !index;
    let p_lit = s.trail.(!index) in
    index := !index - 1;
    let v = abs p_lit in
    s.seen.(v) <- false;
    decr counter;
    p := p_lit;
    if !counter = 0 then finished := true
    else begin
      clause_idx := s.reason.(v);
      assert (!clause_idx >= 0)
    end
  done;
  let asserting = - !p in
  let tail = !learnt in
  List.iter (fun q -> s.seen.(abs q) <- false) tail;
  let backjump = List.fold_left (fun acc q -> max acc s.level.(abs q)) 0 tail in
  (asserting :: tail, backjump)

let record_learnt s learnt backjump =
  match learnt with
  | [] -> assert false
  | [ lit ] ->
    backtrack s 0;
    enqueue s lit (-1)
  | lit :: _ ->
    backtrack s backjump;
    let arr = Array.of_list learnt in
    let best = ref 1 in
    for i = 2 to Array.length arr - 1 do
      if s.level.(abs arr.(i)) > s.level.(abs arr.(!best)) then best := i
    done;
    let tmp = arr.(1) in
    arr.(1) <- arr.(!best);
    arr.(!best) <- tmp;
    let ci = push_clause s arr in
    attach s ci;
    enqueue s lit ci

let pick_branch_var s =
  let best = ref 0 in
  let best_act = ref neg_infinity in
  for v = 1 to s.nvars do
    if s.values.(v) = -1 && s.activity.(v) > !best_act then begin
      best := v;
      best_act := s.activity.(v)
    end
  done;
  !best

exception Result of result

let solve ?(assumptions = []) s =
  if s.root_unsat then Unsat
  else begin
    List.iter
      (fun lit ->
        let v = abs lit in
        if v < 1 || v > s.nvars then invalid_arg "Solver_ref.solve: unknown assumption")
      assumptions;
    let n_assumptions = List.length assumptions in
    let assumption = Array.of_list assumptions in
    let conflict_budget = ref 100 in
    let conflicts_here = ref 0 in
    let result = ref None in
    (try
       while !result = None do
         let confl = propagate s in
         if confl >= 0 then begin
           incr conflicts_here;
           if current_level s <= n_assumptions then begin
             if current_level s = 0 then s.root_unsat <- true;
             backtrack s 0;
             raise (Result Unsat)
           end;
           let learnt, backjump = analyze s confl in
           let backjump = max backjump n_assumptions in
           let backjump = min backjump (current_level s - 1) in
           record_learnt s learnt backjump;
           decay_activity s;
           if !conflicts_here >= !conflict_budget then begin
             conflicts_here := 0;
             conflict_budget := !conflict_budget + (!conflict_budget / 2);
             backtrack s 0
           end
         end
         else if current_level s < n_assumptions then begin
           let lit = assumption.(current_level s) in
           match lit_value s lit with
           | 1 -> new_decision_level s
           | 0 ->
             backtrack s 0;
             raise (Result Unsat)
           | _ ->
             new_decision_level s;
             enqueue s lit (-1)
         end
         else begin
           let v = pick_branch_var s in
           if v = 0 then raise (Result Sat)
           else begin
             new_decision_level s;
             let lit = if s.phase.(v) then v else -v in
             enqueue s lit (-1)
           end
         end
       done
     with Result r -> result := Some r);
    match !result with
    | Some Sat ->
      for v = 1 to s.nvars do
        if s.values.(v) >= 0 then s.phase.(v) <- s.values.(v) = 1
      done;
      backtrack s 0;
      Sat
    | Some Unsat -> Unsat
    | None -> assert false
  end

let value s v =
  if v < 1 || v > s.nvars then invalid_arg "Solver_ref.value";
  if s.values.(v) >= 0 then s.values.(v) = 1 else s.phase.(v)
