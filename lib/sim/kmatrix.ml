module Dfg = Rb_dfg.Dfg
module Minterm = Rb_dfg.Minterm

(* Compressed sparse rows: operation [n]'s entries are
   [mins.(i), cnts.(i)] for [off.(n) <= i < off.(n + 1)], minterms
   strictly ascending. Zero counts given to [of_counts] stay entries. *)
type t = {
  dfg : Dfg.t;
  off : int array;
  mins : int array;
  cnts : int array;
}

module Metrics = Rb_util.Metrics
module Veci = Rb_util.Veci

let m_builds = Metrics.counter ~scope:"sim" "kmatrix_builds"
let m_samples = Metrics.counter ~scope:"sim" "kmatrix_samples"
let t_build = Metrics.timer ~scope:"sim" "kmatrix_build"

(* Sorting by minterm works on packed ints [(m lsl low_bits) lor i],
   where [i] is the index of an entry carried along. *)
let low_bits = 32
let low_mask = (1 lsl low_bits) - 1

(* One stable counting pass over the byte of [src.(0 .. len-1)] at
   [shift], into [dst]. *)
let radix_pass ~hist ~shift src dst len =
  Array.fill hist 0 256 0;
  for i = 0 to len - 1 do
    let b = (src.(i) lsr shift) land 255 in
    hist.(b) <- hist.(b) + 1
  done;
  let pos = ref 0 in
  for b = 0 to 255 do
    let c = hist.(b) in
    hist.(b) <- !pos;
    pos := !pos + c
  done;
  for i = 0 to len - 1 do
    let x = src.(i) in
    let b = (x lsr shift) land 255 in
    dst.(hist.(b)) <- x;
    hist.(b) <- hist.(b) + 1
  done

(* The entries of the selected operations' runs, packed with their
   index and sorted by minterm: two stable byte-wide counting passes,
   O(entries), so equal minterms keep their run order. *)
let sorted_entries ~selected off mins =
  let n = Array.length off - 1 in
  let len = ref 0 in
  for id = 0 to n - 1 do
    if selected id then len := !len + off.(id + 1) - off.(id)
  done;
  let len = !len in
  let a = Array.make len 0 in
  let k = ref 0 in
  for id = 0 to n - 1 do
    if selected id then
      for i = off.(id) to off.(id + 1) - 1 do
        a.(!k) <- (mins.(i) lsl low_bits) lor i;
        incr k
      done
  done;
  let hist = Array.make 256 0 and tmp = Array.make len 0 in
  radix_pass ~hist ~shift:low_bits a tmp len;
  radix_pass ~hist ~shift:(low_bits + 8) tmp a len;
  a

let count_columns ops =
  let ns = Operands.n_samples ops and n = Operands.n_ops ops in
  (* One open-addressing table for the whole build, at least twice as
     many slots as an operation can have distinct minterms, so linear
     probes stay short. [found] remembers the slots an operation used:
     they are appended to its run in first-seen order, then cleared. *)
  let distinct_max = min ns Minterm.space_size in
  let size = ref 16 in
  while !size < 2 * distinct_max do
    size := 2 * !size
  done;
  let mask = !size - 1 in
  let keys = Array.make !size (-1) and counts = Array.make !size 0 in
  let found = Array.make distinct_max 0 in
  let off = Array.make (n + 1) 0 in
  let mins = Veci.create ~cap:(max 16 n) () and cnts = Veci.create ~cap:(max 16 n) () in
  for id = 0 to n - 1 do
    let d = ref 0 in
    for s = 0 to ns - 1 do
      let m = Minterm.to_int (Operands.minterm ops id ~sample:s) in
      let h = ref ((m * 0x9E3779B1) lsr 12 land mask) in
      while
        let k = Array.unsafe_get keys !h in
        k <> m && k >= 0
      do
        h := (!h + 1) land mask
      done;
      let h = !h in
      if Array.unsafe_get keys h < 0 then begin
        Array.unsafe_set keys h m;
        Array.unsafe_set counts h 1;
        Array.unsafe_set found !d h;
        incr d
      end
      else Array.unsafe_set counts h (Array.unsafe_get counts h + 1)
    done;
    for i = 0 to !d - 1 do
      let h = found.(i) in
      Veci.push mins keys.(h);
      Veci.push cnts counts.(h);
      keys.(h) <- -1
    done;
    off.(id + 1) <- Veci.length mins
  done;
  (* Order every run at once: sort all entries by minterm, then put
     them back into their runs in that order — a stable scatter by
     operation, whose bucket starts are [off]. *)
  let mins = Veci.to_array mins and cnts = Veci.to_array cnts in
  let e = Array.length mins in
  let op_of = Array.make e 0 in
  for id = 0 to n - 1 do
    Array.fill op_of off.(id) (off.(id + 1) - off.(id)) id
  done;
  let next = Array.copy off in
  let sorted_mins = Array.make e 0 and sorted_cnts = Array.make e 0 in
  Array.iter
    (fun x ->
      let i = x land low_mask in
      let id = op_of.(i) in
      let p = next.(id) in
      sorted_mins.(p) <- mins.(i);
      sorted_cnts.(p) <- cnts.(i);
      next.(id) <- p + 1)
    (sorted_entries ~selected:(fun _ -> true) off mins);
  { dfg = Operands.dfg ops; off; mins = sorted_mins; cnts = sorted_cnts }

(* The timer covers what the caller pays for the K matrix: the
   golden pass too when [build] runs it, only the counting when the
   columns are shared with the profile. *)
let timed_build samples f =
  Metrics.incr m_builds;
  Metrics.add m_samples samples;
  Metrics.time t_build f

let of_operands ops =
  timed_build (Operands.n_samples ops) (fun () -> count_columns ops)

let build trace =
  timed_build (Trace.length trace) (fun () -> count_columns (Operands.build trace))

let of_counts dfg entries =
  let n = Dfg.op_count dfg in
  let per_op = Array.make n [] in
  List.iter
    (fun (op, counts) ->
      if op < 0 || op >= n then invalid_arg "Kmatrix.of_counts: op id";
      List.iter
        (fun ((_, c) as e) ->
          if c < 0 then invalid_arg "Kmatrix.of_counts: negative count";
          per_op.(op) <- e :: per_op.(op))
        counts)
    entries;
  let off = Array.make (n + 1) 0 in
  let mins = Veci.create () and cnts = Veci.create () in
  Array.iteri
    (fun id entries ->
      List.stable_sort (fun (m1, _) (m2, _) -> Minterm.compare m1 m2) entries
      |> List.iter (fun (m, c) ->
             let m = Minterm.to_int m in
             let last = Veci.length mins - 1 in
             if last >= off.(id) && Veci.get mins last = m then
               Veci.set cnts last (Veci.get cnts last + c)
             else begin
               Veci.push mins m;
               Veci.push cnts c
             end);
      off.(id + 1) <- Veci.length mins)
    per_op;
  { dfg; off; mins = Veci.to_array mins; cnts = Veci.to_array cnts }

let dfg t = t.dfg

(* Binary search of operation [n]'s run; the entry index or -1. *)
let find t m n =
  let m = Minterm.to_int m in
  let lo = ref t.off.(n) and hi = ref (t.off.(n + 1) - 1) in
  let at = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let x = Array.unsafe_get t.mins mid in
    if x = m then begin
      at := mid;
      lo := !hi + 1
    end
    else if x < m then lo := mid + 1
    else hi := mid - 1
  done;
  !at

let count t m n =
  let i = find t m n in
  if i < 0 then 0 else t.cnts.(i)

let count_set t set n =
  Minterm.Set.fold (fun m acc -> acc + count t m n) set 0

let by_count_desc (m1, c1) (m2, c2) =
  match Int.compare c2 c1 with 0 -> Minterm.compare m1 m2 | c -> c

let op_histogram t n =
  List.init
    (t.off.(n + 1) - t.off.(n))
    (fun j ->
      let i = t.off.(n) + j in
      (Minterm.of_int t.mins.(i), t.cnts.(i)))
  |> List.stable_sort by_count_desc

let total_occurrences t m =
  let total = ref 0 in
  for n = 0 to Array.length t.off - 2 do
    total := !total + count t m n
  done;
  !total

(* Per-minterm totals over the selected operations, ascending
   minterm: every selected entry sorted by minterm, then equal
   minterms summed. *)
let aggregate ?kind t =
  let selected id =
    match kind with None -> true | Some k -> (Dfg.op t.dfg id).kind = k
  in
  let a = sorted_entries ~selected t.off t.mins in
  let totals = ref [] in
  for j = Array.length a - 1 downto 0 do
    let m = a.(j) lsr low_bits and c = t.cnts.(a.(j) land low_mask) in
    match !totals with
    | (m', c') :: rest when Minterm.to_int m' = m -> totals := (m', c' + c) :: rest
    | acc -> totals := (Minterm.of_int m, c) :: acc
  done;
  !totals

let all_minterms ?kind t = List.stable_sort by_count_desc (aggregate ?kind t)

let top_minterms ?kind t ~n =
  all_minterms ?kind t |> List.filteri (fun i _ -> i < n) |> List.map fst

let distinct_minterms t = List.length (aggregate t)

let head_mass ?kind t ~n =
  let all = all_minterms ?kind t in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 all in
  if total = 0 then 0.0
  else begin
    let head =
      all |> List.filteri (fun i _ -> i < n)
      |> List.fold_left (fun acc (_, c) -> acc + c) 0
    in
    float_of_int head /. float_of_int total
  end

let op_concentration t m =
  let total = total_occurrences t m in
  if total = 0 then 0.0
  else begin
    let best = ref 0 in
    for n = 0 to Array.length t.off - 2 do
      let c = count t m n in
      if c > !best then best := c
    done;
    float_of_int !best /. float_of_int total
  end
