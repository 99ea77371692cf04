module Limits = Rb_util.Limits
module Veci = Rb_util.Veci

type result = Sat | Unsat | Unknown of Limits.reason

type stats = {
  decisions : int;
  conflicts : int;
  propagations : int;
  restarts : int;
  learned : int;
}

(* Literal encoding for watch lists: positive literal v -> 2v, negative
   literal -v -> 2v+1. Both [lidx] and [abs] (which shadows
   [Stdlib.abs], identical on every int) are computed from the sign
   mask [lit asr 62] — 0 for a positive literal, -1 (all ones) for a
   negative one on 63-bit ints — instead of a branch on the sign: the
   hot loops apply them to every watcher and every scanned literal,
   and a sign branch there is data-dependent, so it mispredicts. *)
let abs lit =
  let m = lit asr 62 in
  (lit lxor m) - m

let[@inline] lidx lit =
  let m = lit asr 62 in
  (((lit lxor m) - m) lsl 1) - m

(* Watch lists are flat int vectors, one packed int per watcher:
   clause tag in the high bits (arithmetic shifts keep its sign), the
   blocker's literal index ({!lidx}) in the low 22 bits. The blocker
   is some literal of the clause (kept best-effort up to date); when
   it is already true the propagation loop skips the clause after one
   int load and one byte load, the stored index addressing the
   assignment byte directly — the common case on the attack miters,
   where most watched clauses are satisfied by earlier assignments.

   Binary clauses get a fully inlined fast path: their tag is the
   negative [-ci - 1], and the blocker is the clause's other literal.
   Propagating one never touches the clause array — the blocker value
   alone decides between skip, enqueue and conflict. Tseitin gate
   encodings are roughly half binary clauses, so this halves the
   pointer chasing of the hot loop. *)
let blocker_bits = 22
let blocker_mask = (1 lsl blocker_bits) - 1
let max_vars = (1 lsl (blocker_bits - 1)) - 1 (* lidx of -max_vars fits *)
let pack_watch tag bi = (tag lsl blocker_bits) lor bi
let watch_tag p = p asr blocker_bits
let watch_blocker p = p land blocker_mask

(* The literal at index [li]: the inverse of {!lidx}, also without a
   branch ([neg] is 0 or 1). *)
let[@inline] lit_of_idx li =
  let neg = li land 1 in
  ((li lsr 1) lxor -neg) + neg

let binary_tag ci = -ci - 1

(* Clauses live in one flat int arena: a header word (length in the
   low bits, LBD above), then the literals. A clause reference is the
   header's offset — watchers, reasons and the learnt index all store
   offsets, so visiting a clause is one load in a single hot array
   instead of a chase through an array of arrays, and clauses pushed
   together (e.g. one Tseitin gate) share cache lines. Removed clauses
   leave their words behind as tombstones (header zeroed), and the
   arena is never compacted: those words stay allocated until the
   solver is dropped, so on long runs most of the arena can be dead
   (24.6 M arena words against 1.44 M live learnt words at the end of
   the attack on a 6-layer permutation network over a 5-bit adder). *)
let hdr_len_bits = 21 (* max_vars < 2^21 bounds any clause length *)
let hdr_len_mask = (1 lsl hdr_len_bits) - 1

(* Heuristic diversification for portfolio solving. Every config
   decides the same instances (soundness never depends on these), but
   restart cadence, activity decay and initial phases steer the search
   into different parts of the space — which is the whole point of
   racing several members. *)
type config = {
  restart_base : int;
  var_decay : float;
  phase_seed : int option;
}

let default_config = { restart_base = 100; var_decay = 0.92; phase_seed = None }

(* Member 0 is always the default config, so a 1-member portfolio is
   exactly the plain solver. The table mixes short/long restart
   cadences with slow/fast decay; odd members keep the false-phase
   bias (good for lex-min witnesses), even members scatter phases. *)
let diverse_config i =
  if i <= 0 then default_config
  else begin
    let bases = [| 100; 60; 220; 340; 80; 150; 480; 40 |] in
    let decays = [| 0.92; 0.95; 0.88; 0.92; 0.97; 0.85; 0.93; 0.90 |] in
    let j = i mod 8 in
    {
      restart_base = bases.(j);
      var_decay = decays.(j);
      phase_seed = (if i mod 2 = 0 then Some (0x5EED + i) else None);
    }
  end

type t = {
  config : config;
  var_decay_factor : float; (* 1 / config.var_decay, applied per conflict *)
  mutable learnt_hook : (lbd:int -> int array -> unit) option;
  mutable nvars : int;
  arena : Veci.t; (* flat clause storage: header word, then literals *)
  mutable watches : Veci.t array; (* lidx -> packed (clause tag, blocker lidx) *)
  mutable assign : Bytes.t; (* lidx -> 0 false / 1 true / 2 unassigned, +4 at level 0 *)
  mutable level : int array;
  mutable reason : int array; (* var -> clause index or -1 *)
  mutable phase : bool array;
  order : Order_heap.t; (* VSIDS branching order; owns activities *)
  mutable var_inc : float;
  mutable trail : int array; (* assigned literals in order *)
  mutable trail_size : int;
  mutable trail_lim : int array; (* start of each decision level in trail *)
  mutable n_levels : int;
  mutable qhead : int;
  mutable root_unsat : bool;
  mutable seen : bool array;
  mutable lbd_mark : int array; (* level -> lbd_stamp, for LBD counting *)
  mutable lbd_stamp : int;
  learnts : Veci.t; (* indices of live learnt clauses *)
  learnt_buf : Veci.t; (* scratch: tail of the clause being learnt *)
  mutable conflicts_since_reduce : int;
  mutable reduce_limit : int;
  mutable s_decisions : int;
  mutable s_conflicts : int;
  mutable s_propagations : int;
  mutable s_restarts : int;
  mutable s_learned : int;
  mutable s_reduces : int;
  mutable s_removed : int;
}

(* Learnt-DB reduction cadence (Glucose-style): first pass after
   [reduce_first] conflicts, each subsequent interval [reduce_inc]
   conflicts longer. Both counts are logical work, so reductions land
   at the same point on every machine and --jobs value. *)
let reduce_first = 2000
let reduce_inc = 300

let create ?(config = default_config) () =
  if config.restart_base < 1 then invalid_arg "Solver.create: restart_base must be >= 1";
  if not (config.var_decay > 0.0 && config.var_decay < 1.0) then
    invalid_arg "Solver.create: var_decay must be in (0, 1)";
  {
    config;
    var_decay_factor = 1.0 /. config.var_decay;
    learnt_hook = None;
    nvars = 0;
    arena = Veci.create ~cap:256 ();
    watches = Array.init 16 (fun _ -> Veci.create ());
    assign = Bytes.make 16 '\002';
    level = Array.make 8 0;
    reason = Array.make 8 (-1);
    phase = Array.make 8 false;
    order = Order_heap.create ();
    var_inc = 1.0;
    trail = Array.make 8 0;
    trail_size = 0;
    trail_lim = Array.make 8 0;
    n_levels = 0;
    qhead = 0;
    root_unsat = false;
    seen = Array.make 8 false;
    lbd_mark = Array.make 8 0;
    lbd_stamp = 0;
    learnts = Veci.create ();
    learnt_buf = Veci.create ();
    conflicts_since_reduce = 0;
    reduce_limit = reduce_first;
    s_decisions = 0;
    s_conflicts = 0;
    s_propagations = 0;
    s_restarts = 0;
    s_learned = 0;
    s_reduces = 0;
    s_removed = 0;
  }

let grow arr size default =
  if Array.length arr >= size then arr
  else begin
    let bigger = Array.make (max size (2 * Array.length arr)) default in
    Array.blit arr 0 bigger 0 (Array.length arr);
    bigger
  end

let grow_bytes b size default =
  if Bytes.length b >= size then b
  else begin
    let bigger = Bytes.make (max size (2 * Bytes.length b)) default in
    Bytes.blit b 0 bigger 0 (Bytes.length b);
    bigger
  end

let grow_watches s size =
  if Array.length s.watches < size then begin
    let old = Array.length s.watches in
    let bigger =
      Array.init (max size (2 * old)) (fun i ->
          if i < old then s.watches.(i) else Veci.create ())
    in
    s.watches <- bigger
  end

let new_var s =
  if s.nvars >= max_vars then
    invalid_arg "Solver.new_var: variable does not fit in a packed watch entry";
  s.nvars <- s.nvars + 1;
  let v = s.nvars in
  let cap = v + 1 in
  s.assign <- grow_bytes s.assign ((2 * cap) + 2) '\002';
  s.level <- grow s.level cap 0;
  s.reason <- grow s.reason cap (-1);
  s.phase <- grow s.phase cap false;
  s.seen <- grow s.seen cap false;
  s.lbd_mark <- grow s.lbd_mark cap 0;
  s.trail <- grow s.trail (v + 1) 0;
  grow_watches s ((2 * cap) + 2);
  Order_heap.ensure s.order v;
  Bytes.unsafe_set s.assign (2 * v) '\002';
  Bytes.unsafe_set s.assign ((2 * v) + 1) '\002';
  s.reason.(v) <- -1;
  (match s.config.phase_seed with
  | None -> ()
  | Some seed ->
    (* Deterministic per-variable phase scatter (mixer, not an RNG
       stream: the phase depends only on (seed, v), never on
       allocation order elsewhere). *)
    let h = seed + (v * 0x9E3779B9) in
    let h = h lxor (h lsr 16) in
    let h = h * 0x85EBCA6B in
    let h = h lxor (h lsr 13) in
    s.phase.(v) <- h land 1 = 1);
  v

let new_vars s n =
  if n <= 0 then invalid_arg "Solver.new_vars";
  let first = new_var s in
  for _ = 2 to n do
    ignore (new_var s)
  done;
  first

let n_vars s = s.nvars

(* Truth values live in a byte array indexed by literal (both
   polarities stored), so the hot loops read one byte per query — no
   sign branch, and an 8x denser cache footprint than an int array.
   Codes: 0 = false, 1 = true, 2 = unassigned, plus the root bit 4 on
   both bytes of a variable assigned at decision level 0 (4 = false
   there, 5 = true). Level-0 assignments are never undone, so the bit
   marks a permanent value: the propagation loop reads it from the byte
   its truth test already loaded instead of a second, random load of
   [level]. [land 3] recovers the plain code, and [lsr 2] is 1
   exactly on a root assignment. *)
let root_bit = 4
let lit_value s lit = Char.code (Bytes.unsafe_get s.assign (lidx lit)) land 3
let var_assigned s v = Bytes.unsafe_get s.assign (2 * v) <> '\002'
let var_true s v = Char.code (Bytes.unsafe_get s.assign (2 * v)) land 1 = 1

let current_level s = s.n_levels

(* The literal's own byte becomes true, its complement's (index
   [li lxor 1]) false — no branch on the sign. The trail holds each
   variable at most once and [new_var] sizes every per-variable array
   past [nvars], so the stores need no bounds checks. *)
let enqueue s lit reason_idx =
  let li = lidx lit in
  let root = if s.n_levels = 0 then root_bit else 0 in
  Bytes.unsafe_set s.assign li (Char.unsafe_chr (1 lor root));
  Bytes.unsafe_set s.assign (li lxor 1) (Char.unsafe_chr root);
  let v = li lsr 1 in
  Array.unsafe_set s.level v s.n_levels;
  Array.unsafe_set s.reason v reason_idx;
  Array.unsafe_set s.trail s.trail_size lit;
  s.trail_size <- s.trail_size + 1

let cls_len s cr = Veci.unsafe_get s.arena cr land hdr_len_mask
let cls_lbd s cr = Veci.unsafe_get s.arena cr lsr hdr_len_bits
let cls_lit s cr i = Veci.unsafe_get s.arena (cr + 1 + i)

(* Append a clause to the arena (LBD 0); returns its reference. *)
let push_clause s arr =
  let cr = Veci.length s.arena in
  Veci.push s.arena (Array.length arr);
  Array.iter (fun l -> Veci.push s.arena l) arr;
  cr

let watch s lit tag bi = Veci.push (Array.unsafe_get s.watches (lidx lit)) (pack_watch tag bi)

(* Attach a clause of length >= 2: watch the first two literals, each
   with the other as blocker. Binary clauses are watched in tagged
   form and never move their watches afterwards. *)
let attach s cr =
  let l0 = cls_lit s cr 0 and l1 = cls_lit s cr 1 in
  let tag = if cls_len s cr = 2 then binary_tag cr else cr in
  watch s l0 tag (lidx l1);
  watch s l1 tag (lidx l0)

(* Remove one watcher of clause [ci] — order is irrelevant, so the
   last entry is moved into the hole. *)
let unwatch s lit ci =
  let wl = s.watches.(lidx lit) in
  let n = Veci.length wl in
  let rec find i =
    if i >= n then ()
    else if watch_tag (Veci.unsafe_get wl i) = ci then begin
      Veci.unsafe_set wl i (Veci.unsafe_get wl (n - 1));
      Veci.truncate wl (n - 1)
    end
    else find (i + 1)
  in
  find 0

(* Order literals by variable (sign breaks ties) so duplicate literals
   and complementary pairs sit adjacent — the tautology/duplicate
   check is then one linear scan instead of List.mem per literal. *)
let lit_order a b =
  match Int.compare (abs a) (abs b) with 0 -> Int.compare a b | c -> c

let add_clause s lits =
  List.iter
    (fun lit ->
      let v = abs lit in
      if v < 1 || v > s.nvars then invalid_arg "Solver.add_clause: unknown variable")
    lits;
  if not s.root_unsat then begin
    assert (current_level s = 0);
    (* Simplify at level 0 with one in-place pass over a sorted array:
       adjacent duplicates collapse, an adjacent complementary pair
       means tautology, satisfied/falsified literals resolve against
       the root assignment. The write cursor [w] compacts surviving
       literals into the same array, so a clean clause costs exactly
       one array allocation. *)
    let arr = Array.of_list lits in
    Array.sort lit_order arr;
    let n = Array.length arr in
    let w = ref 0 in
    let i = ref 0 in
    let tautology = ref false in
    let satisfied = ref false in
    while (not !tautology) && (not !satisfied) && !i < n do
      let l = arr.(!i) in
      if !i + 1 < n && abs arr.(!i + 1) = abs l then
        if arr.(!i + 1) = l then incr i (* duplicate: keep the later copy *)
        else tautology := true (* v next to -v *)
      else begin
        (match lit_value s l with
        | 1 -> satisfied := true
        | 2 ->
          arr.(!w) <- l;
          incr w
        | _ -> () (* falsified at level 0: drop *));
        incr i
      end
    done;
    if (not !tautology) && not !satisfied then
      match !w with
      | 0 -> s.root_unsat <- true
      | 1 ->
        enqueue s arr.(0) (-1)
        (* propagation happens at the start of the next solve *)
      | w ->
        let arr = if w = n then arr else Array.sub arr 0 w in
        let ci = push_clause s arr in
        attach s ci
  end

let bump_var s v =
  Order_heap.bump s.order v s.var_inc;
  if Order_heap.activity s.order v > 1e100 then begin
    Order_heap.rescale s.order 1e-100;
    s.var_inc <- s.var_inc *. 1e-100
  end

let decay_activity s = s.var_inc <- s.var_inc *. s.var_decay_factor

(* Two-watched-literal unit propagation over the flat lists. Returns
   the index of a conflicting clause, or -1. The loop compacts each
   list in place (read cursor [i], write cursor [j]); entries moved to
   another clause's watch list are simply not copied forward.

   The scanned list's backing array is let-bound once per literal:
   nothing pushes onto the list being scanned (a replacement watch
   always lands on a different literal's list), so the alias stays
   valid and saves a pointer reload per entry. *)
let propagate s =
  let assign = s.assign in
  let arena = Veci.unsafe_data s.arena in
  let conflict = ref (-1) in
  while !conflict = -1 && s.qhead < s.trail_size do
    let lit = Array.unsafe_get s.trail s.qhead in
    s.qhead <- s.qhead + 1;
    s.s_propagations <- s.s_propagations + 1;
    let false_lit = -lit in
    let wl = Array.unsafe_get s.watches (lidx false_lit) in
    let w = Veci.unsafe_data wl in
    let n = Veci.length wl in
    let i = ref 0 in
    let j = ref 0 in
    while !i < n do
      let entry = Array.unsafe_get w !i in
      let bi = watch_blocker entry in
      incr i;
      let bv = Char.code (Bytes.unsafe_get assign bi) in
      if bv land 3 = 1 then begin
        (* Satisfied via the blocker. Level-0 assignments are never
           undone, so a clause satisfied there is satisfied forever:
           drop its watcher instead of rescanning it every visit. The
           attack miters make this essential — key variables are
           shared by every accumulated observation copy, and without
           the pruning their watch lists (scanned on each key
           decision) grow linearly with the number of DIPs. The entry
           is always written back (slot [j] < [i] is already read);
           the root bit decides whether [j] moves past it. *)
        Array.unsafe_set w !j entry;
        j := !j + 1 - (bv lsr 2)
      end
      else begin
        let tag = watch_tag entry in
        if tag < 0 then begin
          (* Binary clause: the blocker IS the other literal, so its
             value alone decides — no clause dereference. *)
          let cr = binary_tag tag in
          Array.unsafe_set w !j entry;
          incr j;
          if bv land 3 = 0 then begin
            while !i < n do
              Array.unsafe_set w !j (Array.unsafe_get w !i);
              incr i;
              incr j
            done;
            conflict := cr
          end
          else enqueue s (lit_of_idx bi) cr
        end
        else begin
          let cr = tag in
          let base = cr + 1 in
          (* Normalize: the falsified watch sits in slot 1. *)
          if Array.unsafe_get arena base = false_lit then begin
            Array.unsafe_set arena base (Array.unsafe_get arena (base + 1));
            Array.unsafe_set arena (base + 1) false_lit
          end;
          let first = Array.unsafe_get arena base in
          let fi = lidx first in
          let fv = Char.code (Bytes.unsafe_get assign fi) in
          if fi <> bi && fv land 3 = 1 then begin
            (* Satisfied by the other watch, which becomes the blocker;
               the watcher is dropped if that holds at level 0
               (permanent). *)
            Array.unsafe_set w !j (pack_watch cr fi);
            j := !j + 1 - (fv lsr 2)
          end
          else begin
            (* Look for a replacement watch: the first literal that is
               not false. *)
            let len = Array.unsafe_get arena cr land hdr_len_mask in
            let k = ref 2 in
            while
              !k < len
              && Char.code
                   (Bytes.unsafe_get assign (lidx (Array.unsafe_get arena (base + !k))))
                 land 3
                 = 0
            do
              incr k
            done;
            if !k < len then begin
              Array.unsafe_set arena (base + 1) (Array.unsafe_get arena (base + !k));
              Array.unsafe_set arena (base + !k) false_lit;
              watch s (Array.unsafe_get arena (base + 1)) cr fi
            end
            else begin
              (* Unit or conflicting: keep watching false_lit. *)
              Array.unsafe_set w !j (pack_watch cr fi);
              incr j;
              if fv land 3 = 0 then begin
                (* Conflict: keep the remaining entries and bail. *)
                while !i < n do
                  Array.unsafe_set w !j (Array.unsafe_get w !i);
                  incr i;
                  incr j
                done;
                conflict := cr
              end
              else enqueue s first cr
            end
          end
        end
      end
    done;
    Veci.truncate wl !j
  done;
  !conflict

(* Unassign everything above [target_level]. [trail_lim] holds every
   open level and the trail's entries are allocated variables, so the
   loop needs no bounds checks. *)
let backtrack s target_level =
  if current_level s > target_level then begin
    let bound = Array.unsafe_get s.trail_lim target_level in
    let assign = s.assign in
    for i = s.trail_size - 1 downto bound do
      let v = abs (Array.unsafe_get s.trail i) in
      Array.unsafe_set s.phase v (var_true s v);
      Bytes.unsafe_set assign (2 * v) '\002';
      Bytes.unsafe_set assign ((2 * v) + 1) '\002';
      Array.unsafe_set s.reason v (-1);
      Order_heap.insert s.order v
    done;
    s.trail_size <- bound;
    s.qhead <- bound;
    s.n_levels <- target_level
  end

let new_decision_level s =
  s.trail_lim <- grow s.trail_lim (s.n_levels + 1) 0;
  s.trail_lim.(s.n_levels) <- s.trail_size;
  s.n_levels <- s.n_levels + 1

(* Literal-block distance: number of distinct decision levels in a
   learnt clause (Glucose). Low-LBD ("glue") clauses connect few
   levels and keep proving useful; high-LBD clauses are the first to
   go when the database is reduced. *)
let compute_lbd s lits =
  s.lbd_stamp <- s.lbd_stamp + 1;
  let stamp = s.lbd_stamp in
  let level = s.level and mark = s.lbd_mark in
  let data = Veci.unsafe_data lits in
  let distinct = ref 0 in
  for i = 0 to Veci.length lits - 1 do
    let lv = Array.unsafe_get level (abs (Array.unsafe_get data i)) in
    if Array.unsafe_get mark lv <> stamp then begin
      Array.unsafe_set mark lv stamp;
      incr distinct
    end
  done;
  !distinct

(* First-UIP conflict analysis. Returns (asserting literal, backjump
   level); the rest of the learnt clause is left in [s.learnt_buf] in
   discovery order for {!record_learnt} to consume. Every index is a
   variable of a stored clause or a trail position, so the loops skip
   bounds checks. *)
let analyze s confl =
  Veci.clear s.learnt_buf;
  let arena = Veci.unsafe_data s.arena in
  let seen = s.seen and level = s.level and trail = s.trail in
  let counter = ref 0 in
  let p = ref 0 in
  let index = ref (s.trail_size - 1) in
  let clause_idx = ref confl in
  let finished = ref false in
  while not !finished do
    let cr = !clause_idx in
    let len = Array.unsafe_get arena cr land hdr_len_mask in
    (* Skip the literal being resolved on by value, not position:
       binary reason clauses are never rearranged by propagation, so
       the propagated literal is not guaranteed to sit in slot 0. *)
    for i = 1 to len do
      let q = Array.unsafe_get arena (cr + i) in
      let v = abs q in
      if q <> !p && (not (Array.unsafe_get seen v)) && Array.unsafe_get level v > 0 then begin
        Array.unsafe_set seen v true;
        bump_var s v;
        if Array.unsafe_get level v >= current_level s then incr counter
        else Veci.push s.learnt_buf q
      end
    done;
    (* Select the next literal on the trail to resolve on: the counter
       is positive, so a seen variable lies at or below [index]. *)
    while not (Array.unsafe_get seen (abs (Array.unsafe_get trail !index))) do
      decr index
    done;
    let p_lit = Array.unsafe_get trail !index in
    decr index;
    let v = abs p_lit in
    Array.unsafe_set seen v false;
    decr counter;
    p := p_lit;
    if !counter = 0 then finished := true
    else begin
      clause_idx := Array.unsafe_get s.reason v;
      assert (!clause_idx >= 0)
    end
  done;
  let asserting = - !p in
  let backjump = ref 0 in
  let tail = Veci.unsafe_data s.learnt_buf in
  for i = 0 to Veci.length s.learnt_buf - 1 do
    let v = abs (Array.unsafe_get tail i) in
    Array.unsafe_set seen v false;
    let lv = Array.unsafe_get level v in
    if lv > !backjump then backjump := lv
  done;
  (asserting, !backjump)

(* Install the clause learnt by {!analyze} (asserting literal plus
   [s.learnt_buf]): asserting literal first, a literal from the
   backjump level second (required for correct watching). *)
let record_learnt s asserting backjump =
  let nb = Veci.length s.learnt_buf in
  if nb = 0 then begin
    backtrack s 0;
    enqueue s asserting (-1);
    (* A learnt unit: implied by the clause database alone (CDCL
       learns by resolution on reason clauses only — assumptions are
       decisions, never reasons), so it is safe to hand to a sharing
       hook and re-add in any solver over the same clause set. *)
    match s.learnt_hook with
    | None -> ()
    | Some f -> f ~lbd:1 [| asserting |]
  end
  else begin
    (* The asserting literal sits at the conflict level, which no tail
       literal shares, so it contributes exactly one more level. *)
    let lbd = 1 + compute_lbd s s.learnt_buf in
    backtrack s backjump;
    (* Written straight into the arena: header, asserting literal, then
       the tail in reverse discovery order. *)
    let cr = Veci.length s.arena in
    let len = nb + 1 in
    Veci.push s.arena (len lor (lbd lsl hdr_len_bits));
    Veci.push s.arena asserting;
    for k = nb - 1 downto 0 do
      Veci.push s.arena (Veci.unsafe_get s.learnt_buf k)
    done;
    (* Move a max-level literal (other than the asserting one) to
       position 1 so both watches are correct after backjumping. *)
    let arena = Veci.unsafe_data s.arena in
    let level = s.level in
    let best = ref (cr + 2) in
    let best_level = ref (Array.unsafe_get level (abs (Array.unsafe_get arena !best))) in
    for i = cr + 3 to cr + len do
      let lv = Array.unsafe_get level (abs (Array.unsafe_get arena i)) in
      if lv > !best_level then begin
        best := i;
        best_level := lv
      end
    done;
    let tmp = Array.unsafe_get arena (cr + 2) in
    Array.unsafe_set arena (cr + 2) (Array.unsafe_get arena !best);
    Array.unsafe_set arena !best tmp;
    Veci.push s.learnts cr;
    attach s cr;
    s.s_learned <- s.s_learned + 1;
    enqueue s asserting cr;
    match s.learnt_hook with
    | None -> ()
    | Some f -> f ~lbd (Array.sub arena (cr + 1) len)
  end

(* Learnt-database reduction: drop the worst half of the removable
   learnt clauses, ranked by LBD (highest first, older clause wins a
   tie). Never removed: binary clauses, glue clauses (LBD <= 2), and
   clauses currently acting as the reason of a trail assignment.
   The locked test is MiniSat's [reason.(var of literal 0) = cr]: a
   clause of three or more literals only ever propagates the literal
   in slot 0 (propagation puts the unit there; a learnt clause's
   asserting literal is stored there), and that true literal is never
   swapped out of slot 0 while it stays assigned. *)
let reduce_db s =
  s.s_reduces <- s.s_reduces + 1;
  let n_learnts = Veci.length s.learnts in
  let removable = ref [] in
  Veci.iter
    (fun cr ->
      if cls_len s cr > 2 && cls_lbd s cr > 2 && s.reason.(abs (cls_lit s cr 0)) <> cr then
        removable := cr :: !removable)
    s.learnts;
  let ranked =
    List.sort
      (fun a b ->
        match Int.compare (cls_lbd s b) (cls_lbd s a) with
        | 0 -> Int.compare a b
        | c -> c)
      !removable
  in
  let budget = ref (n_learnts / 2) in
  List.iter
    (fun cr ->
      if !budget > 0 then begin
        decr budget;
        unwatch s (cls_lit s cr 0) cr;
        unwatch s (cls_lit s cr 1) cr;
        Veci.unsafe_set s.arena cr 0;
        s.s_removed <- s.s_removed + 1
      end)
    ranked;
  (* Compact the live-learnts index. *)
  let keep = Veci.to_array s.learnts in
  Veci.clear s.learnts;
  Array.iter
    (fun cr -> if cls_len s cr > 0 then Veci.push s.learnts cr)
    keep

let pick_branch_var s =
  let v = ref (Order_heap.pop s.order) in
  while !v <> 0 && var_assigned s !v do
    v := Order_heap.pop s.order
  done;
  !v

(* Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
   [luby x] is the value at 0-based index [x]. *)
let luby x =
  let size = ref 1 in
  let seq = ref 0 in
  while !size < x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref x in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  1 lsl !seq

exception Result of result

(* Metrics: per-solve deltas of the internal statistics, flushed once
   per solve call so the CDCL inner loops stay free of sink checks. *)
module Metrics = Rb_util.Metrics

let m_solves = Metrics.counter ~scope:"sat" "solves"
let m_sat = Metrics.counter ~scope:"sat" "sat_results"
let m_unsat = Metrics.counter ~scope:"sat" "unsat_results"
let m_unknown = Metrics.counter ~scope:"sat" "unknown_results"
let m_decisions = Metrics.counter ~scope:"sat" "decisions"
let m_conflicts = Metrics.counter ~scope:"sat" "conflicts"
let m_propagations = Metrics.counter ~scope:"sat" "propagations"
let m_restarts = Metrics.counter ~scope:"sat" "restarts"
let m_learned = Metrics.counter ~scope:"sat" "learned_clauses"
let m_reduces = Metrics.counter ~scope:"sat" "db_reductions"
let m_removed = Metrics.counter ~scope:"sat" "removed_clauses"
let t_solve = Metrics.timer ~scope:"sat" "solve"

let flush_metrics s ~from result =
  let d0, c0, p0, r0, l0, rd0, rm0 = from in
  Metrics.incr m_solves;
  Metrics.incr
    (match result with Sat -> m_sat | Unsat -> m_unsat | Unknown _ -> m_unknown);
  Metrics.add m_decisions (s.s_decisions - d0);
  Metrics.add m_conflicts (s.s_conflicts - c0);
  Metrics.add m_propagations (s.s_propagations - p0);
  Metrics.add m_restarts (s.s_restarts - r0);
  Metrics.add m_learned (s.s_learned - l0);
  Metrics.add m_reduces (s.s_reduces - rd0);
  Metrics.add m_removed (s.s_removed - rm0)

let solve ?(assumptions = []) ?(limit = Limits.none) s =
  let from =
    ( s.s_decisions, s.s_conflicts, s.s_propagations, s.s_restarts, s.s_learned,
      s.s_reduces, s.s_removed )
  in
  let finish result =
    flush_metrics s ~from result;
    result
  in
  (* Budgets apply per solve call; the limit poll is skipped entirely
     on the (default) unlimited path so the search loop stays free of
     clock and flag reads. *)
  let limited = not (Limits.is_none limit) in
  let _, c0, _, _, _, _, _ = from in
  Metrics.time t_solve @@ fun () ->
  if s.root_unsat then finish Unsat
  else begin
    List.iter
      (fun lit ->
        let v = abs lit in
        if v < 1 || v > s.nvars then invalid_arg "Solver.solve: unknown assumption")
      assumptions;
    let n_assumptions = List.length assumptions in
    let assumption = Array.of_list assumptions in
    let restarts_here = ref 0 in
    let restart_base = s.config.restart_base in
    let conflict_budget = ref (restart_base * luby 0) in
    let conflicts_here = ref 0 in
    let result = ref None in
    (try
       while !result = None do
         if limited then
           (match Limits.check limit ~conflicts:(s.s_conflicts - c0) with
           | None -> ()
           | Some r ->
             Limits.note r;
             backtrack s 0;
             raise (Result (Unknown r)));
         let confl = propagate s in
         if confl >= 0 then begin
           s.s_conflicts <- s.s_conflicts + 1;
           incr conflicts_here;
           if current_level s <= n_assumptions then begin
             (* Conflict inside (or below) the assumption levels. *)
             if current_level s = 0 then s.root_unsat <- true;
             backtrack s 0;
             raise (Result Unsat)
           end;
           let asserting, backjump = analyze s confl in
           (* Never backjump into the middle of the assumptions; redo
              them instead. *)
           let backjump = max backjump n_assumptions in
           let backjump = min backjump (current_level s - 1) in
           record_learnt s asserting backjump;
           decay_activity s;
           s.conflicts_since_reduce <- s.conflicts_since_reduce + 1;
           if s.conflicts_since_reduce >= s.reduce_limit then begin
             s.conflicts_since_reduce <- 0;
             s.reduce_limit <- s.reduce_limit + reduce_inc;
             reduce_db s
           end;
           if !conflicts_here >= !conflict_budget then begin
             conflicts_here := 0;
             incr restarts_here;
             conflict_budget := restart_base * luby !restarts_here;
             s.s_restarts <- s.s_restarts + 1;
             backtrack s 0
           end
         end
         else if current_level s < n_assumptions then begin
           (* Re-establish the next assumption as a decision. *)
           let lit = assumption.(current_level s) in
           match lit_value s lit with
           | 1 ->
             (* Already implied; introduce an empty decision level so
                the level <-> assumption mapping stays aligned. *)
             new_decision_level s
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
             s.s_decisions <- s.s_decisions + 1;
             new_decision_level s;
             let lit = if s.phase.(v) then v else -v in
             enqueue s lit (-1)
           end
         end
       done
     with Result r -> result := Some r);
    match !result with
    | Some Sat ->
      (* Reset the trail so the solver stays usable incrementally.
         [backtrack] records every popped assignment in [phase], and
         level-0 assignments stay on the trail, so {!value} reads the
         full model without an explicit copy. *)
      backtrack s 0;
      finish Sat
    | Some (Unsat | Unknown _ as r) -> finish r
    | None -> assert false
  end

let value s v =
  if v < 1 || v > s.nvars then invalid_arg "Solver.value";
  if var_assigned s v then var_true s v else s.phase.(v)

let set_learnt_hook s hook = s.learnt_hook <- hook

let stats s =
  {
    decisions = s.s_decisions;
    conflicts = s.s_conflicts;
    propagations = s.s_propagations;
    restarts = s.s_restarts;
    learned = s.s_learned;
  }

(* Test hooks: structural invariants that would be awkward to observe
   through the public solving interface alone. *)
let live_learnt_clauses s = Veci.length s.learnts
let db_reductions s = s.s_reduces
let removed_clauses s = s.s_removed

let reasons_are_live s =
  let ok = ref true in
  for i = 0 to s.trail_size - 1 do
    let r = s.reason.(abs s.trail.(i)) in
    if r >= 0 && cls_len s r = 0 then ok := false
  done;
  !ok