(* Slot i of the table holds its key at [slots.(2i)] and its value at
   [slots.(2i+1)].  [free] marks an empty slot, so the key [free] itself
   cannot live in [slots]; its binding is kept apart in [free_binding]. *)
type t = {
  mutable slots : int array;
  mutable mask : int; (* slot count - 1; the slot count is a power of two *)
  mutable size : int; (* bindings held in [slots] *)
  mutable free_binding : int option;
}

let free = min_int

let create n =
  let cap = ref 4 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  { slots = Array.make (2 * !cap) free; mask = !cap - 1; size = 0; free_binding = None }

(* Multiply-shift (Fibonacci) hashing: the odd multiplier spreads every
   key bit into the high bits of the product, and the shift brings those
   down to where the slot index is masked from. *)
let hash k = (k * 0x1E3779B97F4A7C15) lsr 31

(* Index in [slots] of [k]'s key if [k] is bound, else of the free slot
   that ends its probe sequence.  Terminates because the table is never
   more than half full. *)
let index t k =
  let slots = t.slots and mask = t.mask in
  let rec go i =
    let j = 2 * i in
    let k' = Array.unsafe_get slots j in
    if k' = k || k' = free then j else go ((i + 1) land mask)
  in
  go (hash k land mask)

let grow t =
  let old = t.slots in
  let cap = 2 * (t.mask + 1) in
  t.slots <- Array.make (2 * cap) free;
  t.mask <- cap - 1;
  for i = 0 to (Array.length old / 2) - 1 do
    let k = old.(2 * i) in
    if k <> free then begin
      let j = index t k in
      t.slots.(j) <- k;
      t.slots.(j + 1) <- old.((2 * i) + 1)
    end
  done

let length t = t.size + if t.free_binding = None then 0 else 1

let find t k ~default =
  if k = free then Option.value t.free_binding ~default
  else
    let j = index t k in
    if Array.unsafe_get t.slots j = k then Array.unsafe_get t.slots (j + 1)
    else default

let swap t k v ~absent =
  if k = free then begin
    let old = Option.value t.free_binding ~default:absent in
    t.free_binding <- Some v;
    old
  end
  else begin
    let j = index t k in
    let slots = t.slots in
    if Array.unsafe_get slots j = k then begin
      let old = Array.unsafe_get slots (j + 1) in
      Array.unsafe_set slots (j + 1) v;
      old
    end
    else begin
      Array.unsafe_set slots j k;
      Array.unsafe_set slots (j + 1) v;
      t.size <- t.size + 1;
      if 2 * t.size > t.mask + 1 then grow t;
      absent
    end
  end

let replace t k v = ignore (swap t k v ~absent:0 : int)

let add t k d = replace t k (d + find t k ~default:0)

let iter f t =
  Option.iter (f free) t.free_binding;
  for i = 0 to t.mask do
    let k = t.slots.(2 * i) in
    if k <> free then f k t.slots.((2 * i) + 1)
  done

let fold f t init =
  let acc = ref init in
  iter (fun k v -> acc := f k v !acc) t;
  !acc

let copy t = { t with slots = Array.copy t.slots }
