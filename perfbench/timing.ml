let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let span f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

type summary = {
  n : int;
  median : float;
  tail_pct : float option;
  tail : float option;
}

(* Percentiles in units of 1/10000, so ranks are exact integer arithmetic. *)
let ladder = [ 9999; 9990; 9900; 9000; 5000 ]

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median_sorted a =
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let summarize xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Timing.summarize: no samples";
  let a = sorted xs in
  (* Nearest rank: the p-th percentile is the ceil(p n)-th smallest sample,
     leaving n - ceil(p n) samples beyond it. *)
  let rank p = ((p * n) + 9999) / 10000 in
  let tail = List.find_opt (fun p -> n - rank p >= 10) ladder in
  {
    n;
    median = median_sorted a;
    tail_pct = Option.map (fun p -> float_of_int p /. 100.0) tail;
    tail = Option.map (fun p -> a.(rank p - 1)) tail;
  }

let median xs = (summarize xs).median

let best_round rounds =
  let n_rounds = Array.length rounds in
  if n_rounds = 0 then invalid_arg "Timing.best_round: no rounds";
  let parts = Array.length rounds.(0) in
  if Array.exists (fun r -> Array.length r <> parts) rounds then
    invalid_arg "Timing.best_round: rounds differ in length";
  let total = ref 0.0 in
  for j = 0 to parts - 1 do
    let best = ref rounds.(0).(j) in
    for k = 1 to n_rounds - 1 do
      best := Float.min !best rounds.(k).(j)
    done;
    total := !total +. !best
  done;
  !total

let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1)))
