module Netlist = Rb_netlist.Netlist
module Lock = Rb_netlist.Lock
module Rng = Rb_util.Rng
module Metrics = Rb_util.Metrics
module Limits = Rb_util.Limits
module Pool = Rb_util.Pool

(* Deterministic attack counters: one [dip_queries] per attack
   iteration (the paper's security unit — what Eqn. 1 predicts), one
   [oracle_queries] per oracle evaluation (DIP replays plus the
   approximate attacker's random probes). [canon_solves] counts the
   per-bit assumption solves of the lex-min canonicalization. All are
   --jobs-invariant at portfolio 1; a racing portfolio makes solver-
   side counts (and [clauses_imported]) timing-dependent, which is why
   deterministic surfaces run their counters at portfolio 1. *)
let m_runs = Metrics.counter ~scope:"attack" "runs"
let m_dip_queries = Metrics.counter ~scope:"attack" "dip_queries"
let m_oracle_queries = Metrics.counter ~scope:"attack" "oracle_queries"
let m_key_extractions = Metrics.counter ~scope:"attack" "key_extractions"
let m_canon_solves = Metrics.counter ~scope:"attack" "canon_solves"
let m_clauses_imported = Metrics.counter ~scope:"attack" "clauses_imported"

type outcome =
  | Broken of { key : bool array; iterations : int }
  | Budget_exceeded of { iterations : int }
  | Solver_limit of { iterations : int; reason : Limits.reason }

(* Clause-sharing bounds: only short, low-LBD ("glue") clauses travel
   between members — they are the ones likely to prune other members'
   searches, and the bound keeps imports from bloating clause
   databases. The buffer is drained once per round; overflow drops. *)
let share_max_lbd = 4
let share_max_len = 8
let share_capacity = 4096

(* One portfolio member: a complete persistent miter. All members
   encode the identical circuit in the identical order, so their
   variable spaces are aligned — an exported clause is meaningful in
   every member verbatim, no translation table needed. *)
type member = {
  solver : Solver.t;
  inputs : int array; (* primary inputs, shared by both copies *)
  keys_a : int array;
  keys_b : int array;
  act : int;
      (* activation literal guarding the miter difference clause:
         DIP rounds solve under [act]; key extraction solves the very
         same instance under [-act], with the difference disabled *)
}

type miter = {
  locked : Netlist.t;
  members : member array;
  pool : Pool.t option;
  share : (int * int array) Pool.Share_buffer.t; (* (origin, clause) *)
  limit : Limits.t;
}

(* Force at least one pair of corresponding outputs to differ — but
   only when [act] is assumed: for each output pair (x, y) introduce d
   with d -> (x xor y), and require [act -> some d]. Guarding the
   disjunction with an activation literal is what lets the final
   key-recovery solve reuse this instance (under [-act]) instead of
   re-encoding the whole observation history from scratch. *)
let new_member locked i =
  let solver = Solver.create ~config:(Solver.diverse_config i) () in
  let a = Tseitin.encode solver locked in
  let b = Tseitin.encode solver locked ~input_vars:a.Tseitin.input_vars in
  let act = Solver.new_var solver in
  let n = Array.length a.Tseitin.output_vars in
  let diffs =
    Array.init n (fun j ->
        let d = Solver.new_var solver in
        let x = a.Tseitin.output_vars.(j) and y = b.Tseitin.output_vars.(j) in
        Solver.add_clause solver [ -d; x; y ];
        Solver.add_clause solver [ -d; -x; -y ];
        d)
  in
  Solver.add_clause solver (-act :: Array.to_list diffs);
  {
    solver;
    inputs = a.Tseitin.input_vars;
    keys_a = a.Tseitin.key_vars;
    keys_b = b.Tseitin.key_vars;
    act;
  }

(* Members race only on pool workers, so a portfolio larger than the
   pool (or any portfolio without one) is clamped: a member with no
   worker to run on could only solve after member 0, which is what the
   smaller portfolio already does. *)
let new_miter ?pool ?(portfolio = 1) ?(limit = Limits.none) locked =
  if portfolio < 1 then invalid_arg "Attack.new_miter: portfolio must be >= 1";
  let racing = match pool with None -> 1 | Some p -> min portfolio (Pool.jobs p) in
  {
    locked;
    members = Array.init racing (new_member locked);
    pool;
    share = Pool.Share_buffer.create ~capacity:share_capacity;
    limit;
  }

(* Record one oracle observation in every member: both key copies must
   reproduce it. The encoding is specialized under the known DIP, so
   each observation costs clauses only for its key-dependent cone. *)
let add_io_pair m dip response =
  Array.iter
    (fun mem ->
      Tseitin.constrain_observation mem.solver m.locked ~key_vars:mem.keys_a
        ~inputs:dip ~outputs:response;
      Tseitin.constrain_observation mem.solver m.locked ~key_vars:mem.keys_b
        ~inputs:dip ~outputs:response)
    m.members

let decisive = function Solver.Sat | Solver.Unsat -> true | Solver.Unknown _ -> false

(* One miter round.

   A single member solves directly. A portfolio (more than one member
   implies a pool, see [new_miter]) races all members over the pool
   under two round-local cancel flags with asymmetric roles,
   which is what makes the race deterministic in its reported result
   (see the contract note above [run]):

   - member 0 is the {e sequence owner}: it is only ever interrupted
     by a proven Unsat (a fact about the constraint set, not about
     timing), so on Sat rounds its solve — and hence its model, the
     round's DIP — evolves exactly as at [portfolio = 1];
   - members 1..n-1 are {e helpers}: they stop as soon as member 0 is
     decisive (their own Sat models are never consumed), and their
     real contribution is racing the expensive Unsat proofs — any
     member proving Unsat ends the round for everyone, soundly, since
     all members hold logically equivalent instances.

   During the race every member exports its short learnt clauses into
   the share buffer; once every member has stopped (the map join is
   the quiescent point) the round's harvest is imported into the
   helpers. Member 0 never imports — imported clauses arrive at
   timing-dependent points and would perturb its search, breaking the
   deterministic DIP sequence.

   Budgeted rounds ({!Limits.has_budget}) tighten the contract: a
   conflict/propagation budget promises the {e same} partial result at
   every [--portfolio], but a helper can prove Unsat in wall-time the
   budget denies member 0 — reporting that Unsat would make the
   attack's outcome depend on the racers. So under a work budget
   member 0 runs with {e no} cancel flag at all (its stop point is a
   pure function of the constraint set, exactly as at
   [portfolio = 1]), a member-0 budget stop also stops the helpers,
   and the join discards helper Unsats whenever member 0 was
   budget-stopped. Helpers still race real Unsat proofs for member-0
   rounds that decide within budget, and clause sharing is unaffected
   (member 0 never imports).

   Returns the round result plus the index of the member whose
   model/proof to use: member 0 for Sat, the lowest Unsat prover for
   Unsat (the extracted key is canonical, so the choice is
   unobservable). *)
let budget_stop = function
  | Solver.Unknown (Limits.Conflicts | Limits.Propagations) -> true
  | _ -> false

let solve_round m =
  let members = m.members in
  let n = Array.length members in
  match m.pool with
  | Some pool when n > 1 ->
    let budgeted = Limits.has_budget m.limit in
    let unsat_found = Limits.new_cancel () in
    let helpers_stop = Limits.new_cancel () in
    let solve_member i =
      let mem = members.(i) in
      let limit =
        if i > 0 then Limits.with_cancel m.limit helpers_stop
        else if budgeted then m.limit
        else Limits.with_cancel m.limit unsat_found
      in
      Solver.set_learnt_hook mem.solver
        (Some
           (fun ~lbd clause ->
             if lbd <= share_max_lbd && Array.length clause <= share_max_len then
               ignore (Pool.Share_buffer.push m.share (i, clause))));
      Fun.protect ~finally:(fun () -> Solver.set_learnt_hook mem.solver None)
      @@ fun () ->
      let r = Solver.solve ~assumptions:[ mem.act ] ~limit mem.solver in
      (match r with
      | Solver.Unsat ->
        Limits.cancel unsat_found;
        Limits.cancel helpers_stop
      | _ -> if i = 0 && (decisive r || budget_stop r) then Limits.cancel helpers_stop);
      r
    in
    let results = Pool.map_array pool ~f:solve_member (Array.init n (fun i -> i)) in
    List.iter
      (fun (origin, clause) ->
        let lits = Array.to_list clause in
        Array.iteri
          (fun j mem ->
            if j <> origin && j > 0 then begin
              Metrics.incr m_clauses_imported;
              Solver.add_clause mem.solver lits
            end)
          members)
      (Pool.Share_buffer.drain m.share);
    if budgeted && budget_stop results.(0) then
      (* The deterministic member ran out of budget: report exactly
         what [portfolio = 1] would, even if a helper won an Unsat
         race in the meantime. *)
      (results.(0), 0)
    else begin
      let unsat = ref (-1) in
      Array.iteri
        (fun i r -> if !unsat < 0 && r = Solver.Unsat then unsat := i)
        results;
      if !unsat >= 0 then (Solver.Unsat, !unsat) else (results.(0), 0)
    end
  | _ -> (Solver.solve ~assumptions:[ members.(0).act ] ~limit:m.limit members.(0).solver, 0)

(* Lex-min canonicalization: the lexicographically smallest assignment
   of [vars] consistent with the instance under the [prefix0]
   assumptions. A pure function of the constraint set — every clause a
   member ever imports is logically implied by that set (learnt
   clauses derive by resolution from the shared clauses), so the
   canonical element is identical in every portfolio member, whichever
   one happened to finish the final round.

   Bit i is decided by one unbudgeted assumption solve forcing it
   false under the already-decided prefix: Sat fixes false, Unsat
   fixes true. The current witness model skips most solves — a bit the
   witness already sets false needs no solve, and each Sat yields a
   fresh witness for the remaining bits; phase saving initialized to
   false biases models toward lex-min, keeping the solve count low. *)
let lex_min mem ~prefix0 ~vars =
  let n = Array.length vars in
  let wit = Array.init n (fun i -> Solver.value mem.solver vars.(i)) in
  let bits = Array.make n false in
  let prefix = ref prefix0 in
  (* reversed assumption list *)
  for i = 0 to n - 1 do
    let li = -vars.(i) in
    if not wit.(i) then prefix := li :: !prefix
    else begin
      Metrics.incr m_canon_solves;
      match Solver.solve ~assumptions:(List.rev (li :: !prefix)) mem.solver with
      | Solver.Sat ->
        for k = i + 1 to n - 1 do
          wit.(k) <- Solver.value mem.solver vars.(k)
        done;
        prefix := li :: !prefix
      | Solver.Unsat ->
        bits.(i) <- true;
        prefix := -li :: !prefix
      | Solver.Unknown _ -> assert false (* unbudgeted *)
    end
  done;
  bits

(* The canonical key: the lex-min key consistent with every recorded
   I/O pair — the same live instance solved under [-act], which
   disables the miter difference and leaves exactly the observation
   constraints on the key copies. Key extraction is never budgeted —
   the correct key satisfies every constraint by construction, so
   these solves always terminate on the instances a well-formed oracle
   produces. *)
let extract_key mem =
  Metrics.incr m_key_extractions;
  (match Solver.solve ~assumptions:[ -mem.act ] mem.solver with
  | Solver.Sat -> ()
  | Solver.Unsat | Solver.Unknown _ -> assert false);
  lex_min mem ~prefix0:[ -mem.act ] ~vars:mem.keys_a

let run ?(max_iterations = 100_000) ?limit ?pool ?(portfolio = 1) ?on_dip ~oracle
    ~locked () =
  Metrics.incr m_runs;
  let m = new_miter ?pool ~portfolio ?limit locked in
  let rec attack_loop iterations =
    if iterations >= max_iterations then Budget_exceeded { iterations }
    else begin
      let result, w = solve_round m in
      match result with
      | Solver.Unknown reason ->
        (* Degrade to a partial resilience estimate: the DIPs found so
           far are a lower bound on the scheme's iteration count. *)
        Solver_limit { iterations; reason }
      | Solver.Unsat -> Broken { key = extract_key m.members.(w); iterations }
      | Solver.Sat ->
        (* The DIP is the sequence owner's model, read directly: w = 0
           on every Sat round, and member 0's search is never
           perturbed by the portfolio, so the sequence is the
           portfolio-1 sequence. *)
        let mem = m.members.(w) in
        let dip = Array.map (Solver.value mem.solver) mem.inputs in
        Metrics.incr m_dip_queries;
        Metrics.incr m_oracle_queries;
        (match on_dip with Some f -> f (Array.copy dip) | None -> ());
        add_io_pair m dip (oracle dip);
        attack_loop (iterations + 1)
    end
  in
  attack_loop 0

let attack_locked ?max_iterations ?limit ?pool ?portfolio ?on_dip
    (locked : Lock.locked) =
  let oracle inputs =
    Netlist.eval locked.circuit ~inputs ~keys:locked.correct_key
  in
  run ?max_iterations ?limit ?pool ?portfolio ?on_dip ~oracle ~locked:locked.circuit ()

let key_is_correct locked candidate =
  Option.is_none (Lock.first_wrong_minterm locked ~key:candidate)

type approximate_outcome = {
  key : bool array;
  dip_iterations : int;
  random_queries : int;
  converged : bool;
  estimated_error_rate : float;
}

let approximate ?(dip_budget = 30) ?(queries_per_round = 16) ?(estimate_samples = 2000)
    ?(seed = 97) ?limit (locked : Lock.locked) =
  let oracle inputs =
    Netlist.eval locked.Lock.circuit ~inputs ~keys:locked.Lock.correct_key
  in
  let circuit = locked.Lock.circuit in
  let n_in = Netlist.n_inputs circuit in
  let rng = Rng.create seed in
  let random_inputs () = Array.init n_in (fun _ -> Rng.bool rng) in
  let m = new_miter ?limit circuit in
  let mem = m.members.(0) in
  let queries = ref 0 in
  (* AppSAT-style: interleave DIP refinement with random oracle
     queries, which prune approximately-wrong keys that exact DIPs
     would take exponentially long to reach. The raw model DIP is used
     (no canonicalization): the approximate attacker trades rigor for
     speed, and with a single member the run is deterministic anyway. *)
  Metrics.incr m_runs;
  let rec loop iterations =
    if iterations >= dip_budget then (iterations, false)
    else
      match Solver.solve ~assumptions:[ mem.act ] ~limit:m.limit mem.solver with
      | Solver.Unsat -> (iterations, true)
      (* A budgeted solve that gives up is just another way of not
         converging; the extracted key is still the best candidate. *)
      | Solver.Unknown _ -> (iterations, false)
      | Solver.Sat ->
        let dip = Array.init n_in (fun i -> Solver.value mem.solver mem.inputs.(i)) in
        Metrics.incr m_dip_queries;
        Metrics.incr m_oracle_queries;
        add_io_pair m dip (oracle dip);
        if (iterations + 1) mod 5 = 0 then
          for _ = 1 to queries_per_round do
            incr queries;
            Metrics.incr m_oracle_queries;
            let inputs = random_inputs () in
            add_io_pair m inputs (oracle inputs)
          done;
        loop (iterations + 1)
  in
  let dip_iterations, converged = loop 0 in
  let key = extract_key mem in
  (* Estimate the residual wrong-output rate of the extracted key: the
     samples are drawn one after another as [random_inputs] would draw
     them, and sample j of a batch of 32 rides in lane j of
     {!Netlist.eval_lanes}, under the correct and the extracted key. *)
  let truth = Array.make (Netlist.n_nets circuit) 0 in
  let guess = Array.make (Netlist.n_nets circuit) 0 in
  Array.iteri
    (fun k b ->
      truth.(n_in + k) <- (if locked.Lock.correct_key.(k) then -1 else 0);
      guess.(n_in + k) <- (if b then -1 else 0))
    key;
  let rec popcount w = if w = 0 then 0 else 1 + popcount (w land (w - 1)) in
  let errors = ref 0 and drawn = ref 0 in
  while !drawn < estimate_samples do
    let lanes = min 32 (estimate_samples - !drawn) in
    Array.fill truth 0 n_in 0;
    for j = 0 to lanes - 1 do
      for i = 0 to n_in - 1 do
        if Rng.bool rng then truth.(i) <- truth.(i) lor (1 lsl j)
      done
    done;
    Array.blit truth 0 guess 0 n_in;
    Netlist.eval_lanes circuit truth;
    Netlist.eval_lanes circuit guess;
    let diff = ref 0 in
    Array.iter (fun o -> diff := !diff lor (truth.(o) lxor guess.(o))) (Netlist.outputs circuit);
    errors := !errors + popcount (!diff land ((1 lsl lanes) - 1));
    drawn := !drawn + lanes
  done;
  {
    key;
    dip_iterations;
    random_queries = !queries;
    converged;
    estimated_error_rate = float_of_int !errors /. float_of_int estimate_samples;
  }
