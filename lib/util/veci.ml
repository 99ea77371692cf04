type t = { mutable data : int array; mutable len : int }

let create ?(cap = 4) () =
  if cap < 0 then invalid_arg "Veci.create";
  { data = Array.make (max cap 1) 0; len = 0 }

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Veci.get";
  Array.unsafe_get t.data i

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Veci.set";
  Array.unsafe_set t.data i x

let grow t needed =
  let cap = max needed (2 * Array.length t.data) in
  let bigger = Array.make cap 0 in
  Array.blit t.data 0 bigger 0 t.len;
  t.data <- bigger

let push t x =
  if t.len = Array.length t.data then grow t (t.len + 1);
  Array.unsafe_set t.data t.len x;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Veci.pop";
  t.len <- t.len - 1;
  Array.unsafe_get t.data t.len

let truncate t n =
  if n < 0 || n > t.len then invalid_arg "Veci.truncate";
  t.len <- n

let clear t = t.len <- 0

let to_list t =
  let rec build i acc = if i < 0 then acc else build (i - 1) (t.data.(i) :: acc) in
  build (t.len - 1) []

let of_list l =
  let t = create ~cap:(max 1 (List.length l)) () in
  List.iter (push t) l;
  t

let to_array t = Array.sub t.data 0 t.len

let iter f t =
  for i = 0 to t.len - 1 do
    f (Array.unsafe_get t.data i)
  done

let exists p t =
  let rec scan i = i < t.len && (p (Array.unsafe_get t.data i) || scan (i + 1)) in
  scan 0

let unsafe_get t i = Array.unsafe_get t.data i
let unsafe_set t i x = Array.unsafe_set t.data i x
let unsafe_data t = t.data
