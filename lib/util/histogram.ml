(* Two-tier backend.  Profiling's inner loop is [add] on reuse distances,
   strides and spacings, which are mostly small non-negative ints; a dense
   count array turns a hash-table find/replace pair into one bounds check
   and an array store.  Every other key lives in a spill table.

   The dense tier only grows as far as the histogram's contents justify:
   a key below [dense_limit] but beyond the array grows it when the key is
   below [64 + 8 * distinct], and spills otherwise.  A profile holds tens
   of thousands of per-static-load histograms with one or two keys each,
   and a dense tier sized by the largest key (a single reuse distance of
   3000 costs a 32 KB array) made them most of the profile's memory.

   Invariant: keys in [0, length dense) live in the dense tier and nowhere
   else.  Growing the array therefore moves the spilled keys it now covers
   into it.  The spill table is allocated on first spill. *)

type t = {
  id : int;
  mutable dense : int array; (* counts for keys [0, length dense) *)
  mutable dense_distinct : int;
  mutable spill : Int_table.t option; (* every key outside the dense tier *)
  mutable total : int;
  (* Cached sorted view, invalidated by [add].  Reads from parallel
     domains (sweeps walk frozen histograms concurrently) can race on the
     cache, but every racer computes the same immutable list and a word
     store is atomic, so the race is benign. *)
  mutable sorted : (int * int) list option;
}

let dense_limit = 4096

(* Atomic: histograms are also created inside Domain-parallel sweeps and
   sharded profiling workers, and ids key memo tables, so a torn counter
   would alias unrelated histograms. *)
let next_id = Atomic.make 0

let fresh_id () = Atomic.fetch_and_add next_id 1 + 1

let create () =
  { id = fresh_id (); dense = [||]; dense_distinct = 0; spill = None; total = 0;
    sorted = None }

let id h = h.id

let copy h =
  {
    id = fresh_id ();
    dense = Array.copy h.dense;
    dense_distinct = h.dense_distinct;
    spill = Option.map Int_table.copy h.spill;
    total = h.total;
    sorted = h.sorted;
  }

let distinct h =
  h.dense_distinct + match h.spill with None -> 0 | Some s -> Int_table.length s

(* Grow the dense tier to cover [key] (doubling, at least 8 slots, at most
   [dense_limit]) and move the spilled keys it now covers into it. *)
let grow_dense h key =
  let len = Array.length h.dense in
  let target = ref (max 8 (2 * len)) in
  while !target <= key do
    target := 2 * !target
  done;
  let len' = min dense_limit !target in
  let bigger = Array.make len' 0 in
  Array.blit h.dense 0 bigger 0 len;
  h.dense <- bigger;
  match h.spill with
  | None -> ()
  | Some s ->
    let kept = Int_table.create (Int_table.length s) in
    Int_table.iter
      (fun k c ->
        if k >= len && k < len' then begin
          bigger.(k) <- c;
          h.dense_distinct <- h.dense_distinct + 1
        end
        else Int_table.replace kept k c)
      s;
    h.spill <- (if Int_table.length kept = 0 then None else Some kept)

let add_spill h key count =
  match h.spill with
  | Some s -> Int_table.add s key count
  | None ->
    let s = Int_table.create 1 in
    Int_table.replace s key count;
    h.spill <- Some s

let add h ?(count = 1) key =
  if count < 0 then invalid_arg "Histogram.add: negative count";
  if count > 0 then begin
    h.sorted <- None;
    if key >= 0 && key < dense_limit
       && (key < Array.length h.dense || key < 64 + (8 * distinct h))
    then begin
      if key >= Array.length h.dense then grow_dense h key;
      let c = Array.unsafe_get h.dense key in
      if c = 0 then h.dense_distinct <- h.dense_distinct + 1;
      Array.unsafe_set h.dense key (c + count)
    end
    else add_spill h key count;
    h.total <- h.total + count
  end

let count h key =
  if key >= 0 && key < Array.length h.dense then Array.unsafe_get h.dense key
  else match h.spill with None -> 0 | Some s -> Int_table.find s key ~default:0

let total h = h.total

let is_empty h = h.total = 0

let compute_sorted h =
  let dense = ref [] in
  for k = Array.length h.dense - 1 downto 0 do
    let c = Array.unsafe_get h.dense k in
    if c > 0 then dense := (k, c) :: !dense
  done;
  match h.spill with
  | None -> !dense
  | Some s ->
    let cmp (a, _) (b, _) = Int.compare a b in
    let spill = List.sort cmp (Int_table.fold (fun k c acc -> (k, c) :: acc) s []) in
    List.merge cmp !dense spill

let to_sorted_list h =
  match h.sorted with
  | Some l -> l
  | None ->
    let l = compute_sorted h in
    h.sorted <- Some l;
    l

let iter h f = List.iter (fun (k, c) -> f k c) (to_sorted_list h)

let fold h ~init ~f =
  List.fold_left (fun acc (k, c) -> f acc k c) init (to_sorted_list h)

let mean h =
  if h.total = 0 then 0.0
  else
    let sum =
      fold h ~init:0.0 ~f:(fun acc k c ->
          acc +. (float_of_int k *. float_of_int c))
    in
    sum /. float_of_int h.total

let frequency h key =
  if h.total = 0 then 0.0 else float_of_int (count h key) /. float_of_int h.total

let fraction_above h threshold =
  if h.total = 0 then 0.0
  else
    let above =
      fold h ~init:0 ~f:(fun acc k c -> if k > threshold then acc + c else acc)
    in
    float_of_int above /. float_of_int h.total

let quantile_key h q =
  if h.total = 0 then invalid_arg "Histogram.quantile_key: empty histogram";
  if q <= 0.0 || q > 1.0 then invalid_arg "Histogram.quantile_key: q out of range";
  let target = q *. float_of_int h.total in
  let rec go acc = function
    | [] -> invalid_arg "Histogram.quantile_key: unreachable"
    | [ (k, _) ] -> k
    | (k, c) :: rest ->
      let acc = acc +. float_of_int c in
      if acc >= target then k else go acc rest
  in
  go 0.0 (to_sorted_list h)

let merge a b =
  let result = copy a in
  iter b (fun k c -> add result ~count:c k);
  result

let scale h factor =
  if factor < 0 then invalid_arg "Histogram.scale: negative factor";
  let result = create () in
  iter h (fun k c -> add result ~count:(c * factor) k);
  result

let normalize h =
  if h.total = 0 then []
  else
    let t = float_of_int h.total in
    List.map (fun (k, c) -> (k, float_of_int c /. t)) (to_sorted_list h)

let top_k h k =
  to_sorted_list h
  |> List.sort (fun (k1, c1) (k2, c2) ->
         if c1 <> c2 then compare c2 c1 else compare k1 k2)
  |> fun l -> List.filteri (fun i _ -> i < k) l
