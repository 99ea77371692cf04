(* The splitmix64 state lives in 8 bytes rather than a mutable int64
   field, which would box a fresh int64 on every draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state state =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 state;
  t

let create seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

(* splitmix64 finalizer: xor-shift multiply mix of the advanced state. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] bits64 t =
  let state = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 state;
  mix state

let split t = of_state (bits64 t)

let int t bound =
  assert (bound > 0);
  (* Mask to 62 bits so the native-int conversion stays non-negative. *)
  let raw = Int64.to_int (Int64.logand (bits64 t) 0x3FFFFFFFFFFFFFFFL) in
  raw mod bound

let float t bound =
  let raw = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (raw /. 9007199254740992.0)

let bool t = Int64.logand (bits64 t) 1L = 1L

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
