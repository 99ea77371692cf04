type t = {
  mutable heap : int array; (* heap slot -> variable *)
  mutable size : int;
  mutable pos : int array; (* variable -> heap slot, -1 if absent *)
  mutable act : float array; (* variable -> activity *)
  mutable nvars : int;
}

let create () =
  { heap = Array.make 8 0; size = 0; pos = Array.make 8 (-1); act = Array.make 8 0.0; nvars = 0 }

let grow arr size default =
  if Array.length arr >= size then arr
  else begin
    let bigger = Array.make (max size (2 * Array.length arr)) default in
    Array.blit arr 0 bigger 0 (Array.length arr);
    bigger
  end

let in_heap t v = v <= t.nvars && t.pos.(v) >= 0

(* The sifts move a hole instead of swapping: the sifted variable is
   held in a register and written once, at its final slot. The path
   and the final layout are exactly those of a swap at every step.
   Every slot below [size] holds a variable in [1..nvars], and [heap],
   [pos] and [act] cover those, so the loops skip bounds checks; the
   public entry points validate their variable argument once. *)
let sift_up t i =
  let heap = t.heap and pos = t.pos and act = t.act in
  let v = Array.unsafe_get heap i in
  let a = Array.unsafe_get act v in
  let i = ref i in
  while !i > 0 && a > Array.unsafe_get act (Array.unsafe_get heap ((!i - 1) / 2)) do
    let parent = (!i - 1) / 2 in
    let pv = Array.unsafe_get heap parent in
    Array.unsafe_set heap !i pv;
    Array.unsafe_set pos pv !i;
    i := parent
  done;
  Array.unsafe_set heap !i v;
  Array.unsafe_set pos v !i

let sift_down t i =
  let heap = t.heap and pos = t.pos and act = t.act and size = t.size in
  let v = Array.unsafe_get heap i in
  let a = Array.unsafe_get act v in
  let i = ref i in
  let moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= size then moving := false
    else begin
      let r = l + 1 in
      let child =
        if r < size
           && Array.unsafe_get act (Array.unsafe_get heap r)
              > Array.unsafe_get act (Array.unsafe_get heap l)
        then r
        else l
      in
      let cv = Array.unsafe_get heap child in
      if Array.unsafe_get act cv > a then begin
        Array.unsafe_set heap !i cv;
        Array.unsafe_set pos cv !i;
        i := child
      end
      else moving := false
    end
  done;
  Array.unsafe_set heap !i v;
  Array.unsafe_set pos v !i

(* [ensure] sizes [heap] to hold every variable, so an insert never
   grows it. *)
let insert t v =
  if v < 1 || v > t.nvars then invalid_arg "Order_heap.insert";
  if Array.unsafe_get t.pos v < 0 then begin
    let slot = t.size in
    Array.unsafe_set t.heap slot v;
    t.size <- slot + 1;
    sift_up t slot
  end

let ensure t v =
  if v > t.nvars then begin
    t.heap <- grow t.heap v 0;
    t.pos <- grow t.pos (v + 1) (-1);
    t.act <- grow t.act (v + 1) 0.0;
    let first = t.nvars + 1 in
    t.nvars <- v;
    for u = first to v do
      t.pos.(u) <- -1;
      t.act.(u) <- 0.0;
      insert t u
    done
  end

let pop t =
  if t.size = 0 then 0
  else begin
    let heap = t.heap in
    let v = Array.unsafe_get heap 0 in
    t.size <- t.size - 1;
    Array.unsafe_set t.pos v (-1);
    if t.size > 0 then begin
      Array.unsafe_set heap 0 (Array.unsafe_get heap t.size);
      sift_down t 0
    end;
    v
  end

let size t = t.size

(* Inlined into the solver's per-literal bump, so the activity it
   tests against the rescale threshold is never boxed. *)
let[@inline] activity t v =
  if v < 1 || v > t.nvars then invalid_arg "Order_heap.activity";
  Array.unsafe_get t.act v

let[@inline] bump t v amount =
  if v < 1 || v > t.nvars then invalid_arg "Order_heap.bump";
  Array.unsafe_set t.act v (Array.unsafe_get t.act v +. amount);
  let slot = Array.unsafe_get t.pos v in
  if slot >= 0 then sift_up t slot

let set_activity t v a =
  if v < 1 || v > t.nvars then invalid_arg "Order_heap.set_activity";
  let old = t.act.(v) in
  t.act.(v) <- a;
  if t.pos.(v) >= 0 then
    if a > old then sift_up t t.pos.(v) else sift_down t t.pos.(v)

let rebuild t =
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t i
  done

let rescale t factor =
  for v = 1 to t.nvars do
    t.act.(v) <- t.act.(v) *. factor
  done;
  rebuild t

let valid t =
  let ordered = ref true in
  for i = 1 to t.size - 1 do
    let parent = (i - 1) / 2 in
    if t.act.(t.heap.(parent)) < t.act.(t.heap.(i)) then ordered := false
  done;
  let indexed = ref true in
  for i = 0 to t.size - 1 do
    if t.pos.(t.heap.(i)) <> i then indexed := false
  done;
  for v = 1 to t.nvars do
    let p = t.pos.(v) in
    if p >= 0 && (p >= t.size || t.heap.(p) <> v) then indexed := false
  done;
  !ordered && !indexed
