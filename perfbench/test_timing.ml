let check_float = Alcotest.(check (float 0.0))
let check_pct = Alcotest.(check (option (float 1e-9)))

let ramp n = Array.init n (fun i -> float_of_int (n - i))

let test_median () =
  check_float "odd" 3.0 (Timing.median [| 5.0; 1.0; 3.0 |]);
  check_float "even" 2.5 (Timing.median [| 4.0; 1.0; 3.0; 2.0 |]);
  check_float "single" 7.0 (Timing.median [| 7.0 |])

let test_no_tail_below_twenty () =
  let s = Timing.summarize (ramp 19) in
  Alcotest.(check int) "count" 19 s.n;
  check_pct "no tail" None s.tail_pct;
  check_pct "no value" None s.tail

let test_tail_leaves_ten_beyond () =
  (* 1..n: the p-th percentile by nearest rank is ceil(p n). *)
  let cases =
    [ (20, 50.0, 10.0); (99, 50.0, 50.0); (100, 90.0, 90.0);
      (999, 90.0, 900.0); (1000, 99.0, 990.0); (10_000, 99.9, 9990.0);
      (100_000, 99.99, 99_990.0) ]
  in
  List.iter
    (fun (n, pct, value) ->
      let s = Timing.summarize (ramp n) in
      let name = string_of_int n in
      check_pct (name ^ " pct") (Some pct) s.tail_pct;
      check_pct (name ^ " value") (Some value) s.tail;
      let beyond =
        Array.fold_left
          (fun k x -> if x > Option.get s.tail then k + 1 else k)
          0 (ramp n)
      in
      Alcotest.(check bool) (name ^ " ten beyond") true (beyond >= 10))
    cases

let test_percentile () =
  check_float "p99 of 1..1000" 990.0 (Timing.percentile (ramp 1000) 99.0);
  check_float "p50 of 1..4" 2.0 (Timing.percentile (ramp 4) 50.0);
  check_float "p100" 7.0 (Timing.percentile [| 3.0; 7.0 |] 100.0)

let test_input_untouched () =
  let xs = [| 3.0; 1.0; 2.0 |] in
  ignore (Timing.summarize xs);
  Alcotest.(check (array (float 0.0))) "unchanged" [| 3.0; 1.0; 2.0 |] xs

let test_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Timing.summarize: no samples")
    (fun () -> ignore (Timing.summarize [||]))

let test_best_round () =
  (* Part 0 is fastest in round 1, part 1 in round 0. *)
  check_float "per-part minimum" 3.0
    (Timing.best_round [| [| 3.0; 1.0 |]; [| 2.0; 5.0 |]; [| 4.0; 1.5 |] |]);
  check_float "one round" 6.0 (Timing.best_round [| [| 1.0; 2.0; 3.0 |] |]);
  Alcotest.check_raises "no round" (Invalid_argument "Timing.best_round: no rounds")
    (fun () -> ignore (Timing.best_round [||]));
  Alcotest.check_raises "ragged" (Invalid_argument "Timing.best_round: rounds differ in length")
    (fun () -> ignore (Timing.best_round [| [| 1.0 |]; [| 1.0; 2.0 |] |]))

let () =
  Alcotest.run "perfbench_timing"
    [
      ( "summarize",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "no tail below twenty samples" `Quick
            test_no_tail_below_twenty;
          Alcotest.test_case "tail leaves ten beyond" `Quick
            test_tail_leaves_ten_beyond;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "input untouched" `Quick test_input_untouched;
          Alcotest.test_case "empty rejected" `Quick test_empty_rejected;
        ] );
      ("best_round", [ Alcotest.test_case "per-part minimum" `Quick test_best_round ]);
    ]
