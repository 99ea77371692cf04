type t = int

let pack a b = (Word.clamp a lsl Word.width) lor Word.clamp b
let unpack m = (m lsr Word.width, m land Word.mask)
let bits = 2 * Word.width
let space_size = 1 lsl bits
let of_int i = i land (space_size - 1)
let to_int m = m
let compare = Int.compare
let equal = Int.equal
let hash = Hashtbl.hash

let pp fmt m =
  let a, b = unpack m in
  Format.fprintf fmt "(%d,%d)" a b

module Set = Set.Make (Int)
module Map = Map.Make (Int)
