module Dfg = Rb_dfg.Dfg
module Minterm = Rb_dfg.Minterm
module Word = Rb_dfg.Word
module Schedule = Rb_sched.Schedule
module Config = Rb_locking.Config

(* The simulator is the innermost hot loop of every experiment, so the
   counters count whole evaluations and flush op totals once per call
   rather than bumping inside the per-op loop. *)
module Metrics = Rb_util.Metrics

let m_clean_evals = Metrics.counter ~scope:"sim" "clean_evals"
let m_locked_evals = Metrics.counter ~scope:"sim" "locked_evals"
let m_op_evals = Metrics.counter ~scope:"sim" "op_evals"
let m_injections = Metrics.counter ~scope:"sim" "injections"
let m_error_reports = Metrics.counter ~scope:"sim" "error_reports"

(* ------------------------------------------------------------ fast core *)

(* Operand source codes for the compiled plan. *)
let src_input = 0
let src_const = 1
let src_op = 2

module Fast = struct
  (* A DFG compiled to struct-of-arrays form, plus result buffers
     reused across samples. The interpretive loop in the old code paid
     a [Dfg.op] record load, two [operand] constructor matches and —
     for input operands — a per-op hashtable lookup of the input name,
     for every op of every sample. Compiling once per trace moves all
     of that out of the sample loop: evaluating a sample is then a
     single pass over flat int arrays with no allocation at all. *)
  type t = {
    trace : Trace.t;
    n : int;
    kind : int array; (* 0 = add, 1 = mul *)
    a_src : int array; (* src_input / src_const / src_op *)
    a_ix : int array; (* sample column | constant value | op id *)
    b_src : int array;
    b_ix : int array;
    a : int array; (* operand/result buffers of the last eval *)
    b : int array;
    r : int array;
  }

  let compile_operand trace = function
    | Dfg.Input name -> (src_input, Trace.input_index trace name)
    | Dfg.Const c -> (src_const, Word.clamp c)
    | Dfg.Op id -> (src_op, id)

  let make trace =
    let dfg = Trace.dfg trace in
    let n = Dfg.op_count dfg in
    let kind = Array.make n 0 in
    let a_src = Array.make n 0 in
    let a_ix = Array.make n 0 in
    let b_src = Array.make n 0 in
    let b_ix = Array.make n 0 in
    for id = 0 to n - 1 do
      let o = Dfg.op dfg id in
      kind.(id) <- (match o.kind with Dfg.Add -> 0 | Dfg.Mul -> 1);
      let sa, xa = compile_operand trace o.lhs in
      a_src.(id) <- sa;
      a_ix.(id) <- xa;
      let sb, xb = compile_operand trace o.rhs in
      b_src.(id) <- sb;
      b_ix.(id) <- xb
    done;
    {
      trace;
      n;
      kind;
      a_src;
      a_ix;
      b_src;
      b_ix;
      a = Array.make n 0;
      b = Array.make n 0;
      r = Array.make n 0;
    }

  let n_ops t = t.n
  let a t = t.a
  let b t = t.b
  let results t = t.r

  (* One operand: every source is an int-array read (the sample row for
     inputs, the result buffer for op references) or the constant
     itself. All three are clamped to the word range already, so the
     arithmetic below can pack minterms with plain shifts. *)
  let[@inline] operand row r src ix =
    if src = src_op then Array.unsafe_get r ix
    else if src = src_input then Array.unsafe_get row ix
    else ix

  (* Golden pass over one sample row into caller-supplied buffers. *)
  let eval_into t ~row ~a ~b ~r =
    let kind = t.kind in
    let a_src = t.a_src and a_ix = t.a_ix in
    let b_src = t.b_src and b_ix = t.b_ix in
    for id = 0 to t.n - 1 do
      let av =
        operand row r (Array.unsafe_get a_src id) (Array.unsafe_get a_ix id)
      in
      let bv =
        operand row r (Array.unsafe_get b_src id) (Array.unsafe_get b_ix id)
      in
      Array.unsafe_set a id av;
      Array.unsafe_set b id bv;
      Array.unsafe_set r id
        (if Array.unsafe_get kind id = 0 then Word.add av bv else Word.mul av bv)
    done

  let eval_clean t ~sample =
    eval_into t ~row:(Trace.sample t.trace sample) ~a:t.a ~b:t.b ~r:t.r;
    Metrics.incr m_clean_evals;
    Metrics.add m_op_evals t.n
end

(* Per-op locked-minterm lookup tables. [Config.is_locked_input] is a
   [List.assoc] over the locked FUs followed by a [Minterm.Set.mem] —
   fine once, ruinous once per op per sample. A minterm is
   [Minterm.bits] bits, so each locked FU's set flattens into a 64 KB
   byte table and the per-op query becomes one byte load. Ops on
   unlocked FUs share a single all-zero table, which keeps the hot
   loop free of any "is this FU locked" branch. *)

let locked_tables config ~fu_of_op n =
  let zero = Bytes.make Minterm.space_size '\000' in
  let by_fu = Hashtbl.create 8 in
  let table_of fu =
    match Hashtbl.find_opt by_fu fu with
    | Some t -> t
    | None ->
      let set = Config.minterms_of config fu in
      let t =
        if Minterm.Set.is_empty set then zero
        else begin
          let t = Bytes.make Minterm.space_size '\000' in
          Minterm.Set.iter (fun m -> Bytes.set t (Minterm.to_int m) '\001') set;
          t
        end
      in
      Hashtbl.add by_fu fu t;
      t
  in
  Array.init n (fun id -> table_of fu_of_op.(id))

(* Faulty pass: same shape as {!Fast.eval_into}, plus corruption of
   locked minterms (on the possibly-already-corrupted operand stream,
   so errors propagate through the dataflow). Each injection bumps
   [injections] and marks its cycle in [cycle_hit]; each locked
   minterm on the golden operands [ga], [gb] bumps [clean_hits] (Eqn.
   2 realized on the golden value stream). *)
let eval_locked_into (f : Fast.t) ~row ~tables ~ga ~gb ~cycle_of ~cycle_hit ~injections
    ~clean_hits ~a ~b ~r =
  let kind = f.Fast.kind in
  let a_src = f.Fast.a_src and a_ix = f.Fast.a_ix in
  let b_src = f.Fast.b_src and b_ix = f.Fast.b_ix in
  for id = 0 to f.Fast.n - 1 do
    let av =
      Fast.operand row r (Array.unsafe_get a_src id) (Array.unsafe_get a_ix id)
    in
    let bv =
      Fast.operand row r (Array.unsafe_get b_src id) (Array.unsafe_get b_ix id)
    in
    Array.unsafe_set a id av;
    Array.unsafe_set b id bv;
    let clean =
      if Array.unsafe_get kind id = 0 then Word.add av bv else Word.mul av bv
    in
    let tbl = Array.unsafe_get tables id in
    let gm = (Array.unsafe_get ga id lsl Word.width) lor Array.unsafe_get gb id in
    if Bytes.unsafe_get tbl gm <> '\000' then incr clean_hits;
    let m = (av lsl Word.width) lor bv in
    let result =
      if Bytes.unsafe_get tbl m <> '\000' then begin
        incr injections;
        Array.unsafe_set cycle_hit (Array.unsafe_get cycle_of id) true;
        Config.corrupt clean
      end
      else clean
    in
    Array.unsafe_set r id result
  done

type error_report = {
  samples : int;
  error_events : int;
  clean_hits : int;
  corrupted_output_words : int;
  corrupted_samples : int;
  corrupted_cycles : int;
  max_consecutive_cycles : int;
}

let application_errors schedule trace ~fu_of_op ~config =
  let dfg = Trace.dfg trace in
  if Dfg.name (Schedule.dfg schedule) <> Dfg.name dfg then
    invalid_arg "Exec.application_errors: schedule/trace DFG mismatch";
  let n = Dfg.op_count dfg in
  if Array.length fu_of_op <> n then
    invalid_arg "Exec.application_errors: binding width";
  let f = Fast.make trace in
  let tables = locked_tables config ~fu_of_op n in
  let cycle_of = Array.init n (Schedule.cycle_of schedule) in
  let out_ids = Array.of_list (Dfg.outputs dfg) in
  (* Faulty-run buffers; the golden run uses the plan's own. All are
     reused across samples, so the per-sample loop never allocates. *)
  let fa = Array.make n 0 and fb = Array.make n 0 and fr = Array.make n 0 in
  let n_samples = Trace.length trace in
  let error_events = ref 0 in
  let clean_hits = ref 0 in
  let corrupted_output_words = ref 0 in
  let corrupted_samples = ref 0 in
  let corrupted_cycles = ref 0 in
  let max_burst = ref 0 in
  let n_cycles = Schedule.n_cycles schedule in
  let cycle_hit = Array.make n_cycles false in
  for s = 0 to n_samples - 1 do
    let row = Trace.sample trace s in
    let ga = f.Fast.a and gb = f.Fast.b and gr = f.Fast.r in
    Fast.eval_into f ~row ~a:ga ~b:gb ~r:gr;
    Array.fill cycle_hit 0 n_cycles false;
    eval_locked_into f ~row ~tables ~ga ~gb ~cycle_of ~cycle_hit ~injections:error_events
      ~clean_hits ~a:fa ~b:fb ~r:fr;
    (* Output corruption. *)
    let wrong_words = ref 0 in
    Array.iter (fun out -> if gr.(out) <> fr.(out) then incr wrong_words) out_ids;
    corrupted_output_words := !corrupted_output_words + !wrong_words;
    if !wrong_words > 0 then incr corrupted_samples;
    (* Burst statistics from the per-cycle injection map. *)
    let burst = ref 0 in
    Array.iter
      (fun hit ->
        if hit then begin
          incr burst;
          incr corrupted_cycles;
          if !burst > !max_burst then max_burst := !burst
        end
        else burst := 0)
      cycle_hit
  done;
  (* Counter totals match the unfused implementation (which ran one
     golden and one locked evaluation per sample), so metric baselines
     stay comparable. *)
  Metrics.add m_clean_evals n_samples;
  Metrics.add m_locked_evals n_samples;
  Metrics.add m_op_evals (2 * n * n_samples);
  Metrics.add m_injections !error_events;
  Metrics.incr m_error_reports;
  {
    samples = n_samples;
    error_events = !error_events;
    clean_hits = !clean_hits;
    corrupted_output_words = !corrupted_output_words;
    corrupted_samples = !corrupted_samples;
    corrupted_cycles = !corrupted_cycles;
    max_consecutive_cycles = !max_burst;
  }
