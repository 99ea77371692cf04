module Dfg = Rb_dfg.Dfg
module Minterm = Rb_dfg.Minterm
module Word = Rb_dfg.Word

(* Unchecked native-endian 16-bit accesses; every index below is
   derived from the column bounds. *)
external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"

(* A minterm must fit the 16-bit cells. *)
let () = assert (Minterm.space_size <= 0x10000)

type t = {
  dfg : Dfg.t;
  n : int;
  ns : int;
  cols : Bytes.t; (* minterm of (op, sample) at byte 2 * (op * ns + sample) *)
}

(* Samples per transposition block: 32 cells of 2 bytes fill one
   64-byte cache line of a column. *)
let block = 32

(* The evaluator produces one sample (a row over the ops) at a time,
   but the columns are op-major. Writing each row straight into the
   columns touches one cache line per op per sample, which thrashes
   once the columns outgrow the cache; instead a block of rows is
   packed into a small row-major scratch ([block] x ops cells) and then
   transposed, one contiguous run per op. *)
let build trace =
  let fast = Exec.Fast.make trace in
  let n = Exec.Fast.n_ops fast and ns = Trace.length trace in
  let cols = Bytes.create (2 * n * ns) in
  let rows = Bytes.create (2 * n * min block ns) in
  let a = Exec.Fast.a fast and b = Exec.Fast.b fast in
  let s0 = ref 0 in
  while !s0 < ns do
    let len = min block (ns - !s0) in
    for j = 0 to len - 1 do
      Exec.Fast.eval_clean fast ~sample:(!s0 + j);
      (* The evaluator clamps every operand to the word range, so the
         minterm packs with a plain shift. *)
      let row = 2 * j * n in
      for id = 0 to n - 1 do
        set16u rows (row + (2 * id))
          ((Array.unsafe_get a id lsl Word.width) lor Array.unsafe_get b id)
      done
    done;
    for id = 0 to n - 1 do
      let dst = 2 * ((id * ns) + !s0) in
      for j = 0 to len - 1 do
        set16u cols (dst + (2 * j)) (get16u rows (2 * ((j * n) + id)))
      done
    done;
    s0 := !s0 + len
  done;
  { dfg = Trace.dfg trace; n; ns; cols }

let dfg t = t.dfg
let n_ops t = t.n
let n_samples t = t.ns

let minterm t op ~sample =
  if op < 0 || op >= t.n || sample < 0 || sample >= t.ns then
    invalid_arg "Operands.minterm";
  Minterm.of_int (get16u t.cols (2 * ((op * t.ns) + sample)))
