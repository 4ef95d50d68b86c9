type t = {
  history_bits : int;
  id_limit : int;  (* static ids must be below this for keys to be unique *)
  (* Outcome counts per (static_id, history), keyed by the packed int
     [static_id lsl history_bits lor history], which orders like the
     pair.  [takens] binds only keys with a taken outcome. *)
  totals : Int_table.t;
  takens : Int_table.t;
  (* static_id -> current local history *)
  histories : Int_table.t;
  mutable observed : int;
}

let create ?(history_bits = 8) () =
  { history_bits; id_limit = 1 lsl (62 - history_bits);
    totals = Int_table.create 1024; takens = Int_table.create 1024;
    histories = Int_table.create 256; observed = 0 }

let check_id fn t static_id =
  if static_id < 0 || static_id >= t.id_limit then
    invalid_arg
      (Printf.sprintf "Entropy.%s: static_id %d outside [0, 2^%d)" fn static_id
         (62 - t.history_bits))

(* Shift [taken] into [static_id]'s history register; returns the history
   before the update. *)
let advance t ~static_id ~taken =
  let h = Int_table.find t.histories static_id ~default:0 in
  let mask = (1 lsl t.history_bits) - 1 in
  Int_table.replace t.histories static_id (((h lsl 1) lor Bool.to_int taken) land mask);
  h

let observe t ~static_id ~taken =
  check_id "observe" t static_id;
  let key = (static_id lsl t.history_bits) lor advance t ~static_id ~taken in
  Int_table.add t.totals key 1;
  if taken then Int_table.add t.takens key 1;
  t.observed <- t.observed + 1

let prime t ~static_id ~taken =
  check_id "prime" t static_id;
  ignore (advance t ~static_id ~taken : int)

let merge a b =
  if a.history_bits <> b.history_bits then
    invalid_arg "Entropy.merge: history_bits mismatch";
  let t = create ~history_bits:a.history_bits () in
  let accumulate src =
    Int_table.iter (Int_table.add t.totals) src.totals;
    Int_table.iter (Int_table.add t.takens) src.takens;
    t.observed <- t.observed + src.observed
  in
  accumulate a;
  accumulate b;
  t

let linear_entropy t =
  if t.observed = 0 then 0.0
  else
    (* Sum in sorted-key order: float addition is not associative, so a
       table fold (whose order depends on insertion history) would make
       the entropy of a merged shard profile differ in the last ulp from
       the sequential one and break bit-identity of serialized profiles. *)
    let cells =
      Int_table.fold (fun key total acc -> (key, total) :: acc) t.totals []
      |> List.sort (fun (k1, _) (k2, _) -> Int.compare k1 k2)
    in
    let weighted =
      List.fold_left
        (fun acc (key, total) ->
          (* Laplace-smoothed probability: the raw ratio drives the
             entropy of sparsely-observed patterns to 0 (a branch seen
             once per pattern always looks perfectly predictable),
             which destroys the linear relation to predictor miss
             rates; add-one smoothing removes that small-sample bias. *)
          let taken = Int_table.find t.takens key ~default:0 in
          let p = (float_of_int taken +. 1.0) /. (float_of_int total +. 2.0) in
          let e = 2.0 *. Float.min p (1.0 -. p) in
          acc +. (float_of_int total *. e))
        0.0 cells
    in
    weighted /. float_of_int t.observed

let observed_branches t = t.observed
