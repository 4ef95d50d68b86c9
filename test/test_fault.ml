(* The robustness layer: CRC-32, structured faults, fault-isolated
   parallel map, and the crash-tolerant checkpoint log. *)

(* ---- Crc32 ---- *)

let test_crc32_vectors () =
  (* The two standard IEEE 802.3 check values. *)
  Alcotest.(check string) "check value" "cbf43926"
    (Crc32.to_hex (Crc32.string "123456789"));
  Alcotest.(check string) "empty" "00000000" (Crc32.to_hex (Crc32.string ""));
  Alcotest.(check int) "incremental = whole"
    (Crc32.string "hello world")
    (Crc32.update (Crc32.string "hello ") "world" ~pos:0 ~len:5)

let test_crc32_hex_roundtrip () =
  List.iter
    (fun s ->
      let crc = Crc32.string s in
      match Crc32.of_hex (Crc32.to_hex crc) with
      | Some back -> Alcotest.(check int) ("hex round-trip " ^ s) crc back
      | None -> Alcotest.fail "of_hex rejected to_hex output")
    [ ""; "a"; "checkpoint line"; String.make 1000 'x' ];
  Alcotest.(check bool) "rejects junk" true (Crc32.of_hex "zzzzzzzz" = None);
  Alcotest.(check bool) "rejects short" true (Crc32.of_hex "abc" = None)

(* ---- Fault ---- *)

let test_fault_line_roundtrip () =
  let faults =
    [ Fault.bad_input ~line:7 ~context:"profile" "bad integer \"x\"";
      Fault.numeric "design point 3: non-finite watts (nan)";
      Fault.worker_crash (Failure "boom\nwith newline") (Printexc.get_callstack 0);
      Fault.timeout "per-request deadline exceeded";
      Fault.overload "admission queue full (64 pending)" ]
  in
  List.iter
    (fun ft ->
      let line = Fault.to_line ft in
      Alcotest.(check bool) "single line" false (String.contains line '\n');
      match String.index_opt line ' ' with
      | None -> Alcotest.fail "to_line has no tag separator"
      | Some i -> (
        let tag = String.sub line 0 i in
        let rest = String.sub line (i + 1) (String.length line - i - 1) in
        match Fault.of_line ~tag rest with
        | None -> Alcotest.failf "of_line rejected %S" line
        | Some back ->
          Alcotest.(check string) "tag survives" (Fault.tag ft) (Fault.tag back)))
    faults;
  Alcotest.(check bool) "unknown tag rejected" true
    (Fault.of_line ~tag:"martian" "msg" = None)

let test_serving_faults_roundtrip_exactly () =
  (* Timeout/Overload carry plain messages, so — unlike Worker_crash,
     which loses its exception identity — their round-trip through a log
     line or wire frame is exact. *)
  List.iter
    (fun ft ->
      let line = Fault.to_line ft in
      let i = String.index line ' ' in
      let tag = String.sub line 0 i in
      let rest = String.sub line (i + 1) (String.length line - i - 1) in
      match Fault.of_line ~tag rest with
      | Some back -> Alcotest.(check bool) ("exact: " ^ line) true (ft = back)
      | None -> Alcotest.failf "of_line rejected %S" line)
    [
      Fault.timeout "deadline exceeded after 250 ms";
      Fault.timeout "";
      Fault.overload "queue full";
      Fault.overload "degraded mode: batch requests shed";
    ]

(* ---- Parallel.map_result ---- *)

let test_map_result_isolation () =
  let f x = if x mod 3 = 0 then failwith ("bad " ^ string_of_int x) else x * x in
  List.iter
    (fun jobs ->
      let results = Parallel.map_result ~jobs f [ 1; 2; 3; 4; 5; 6; 7 ] in
      Alcotest.(check int) "length" 7 (List.length results);
      List.iteri
        (fun i r ->
          let x = i + 1 in
          match r with
          | Ok v ->
            Alcotest.(check bool) "ok only off-multiples" true (x mod 3 <> 0);
            Alcotest.(check int) "value" (x * x) v
          | Error (Fault.Worker_crash (Failure msg, _)) ->
            Alcotest.(check bool) "crash only on multiples" true (x mod 3 = 0);
            Alcotest.(check string) "message" ("bad " ^ string_of_int x) msg
          | Error ft ->
            Alcotest.failf "wrong fault kind: %s" (Fault.to_string ft))
        results)
    [ 1; 4 ]

let test_map_result_passes_faults_through () =
  (* A function raising [Fault.Error] keeps its fault untouched instead
     of being double-wrapped as a crash. *)
  let f x = if x = 2 then Fault.raise_error (Fault.numeric "nan cpi") else x in
  match Parallel.map_result f [ 1; 2 ] with
  | [ Ok 1; Error (Fault.Numeric "nan cpi") ] -> ()
  | _ -> Alcotest.fail "fault was rewrapped or reordered"

let prop_map_result_jobs_invariant =
  QCheck.Test.make ~name:"map_result verdicts independent of jobs" ~count:30
    QCheck.(pair (int_range 0 40) (int_range 2 6))
    (fun (n, jobs) ->
      let xs = List.init n Fun.id in
      let f x = if x mod 5 = 4 then failwith "die" else x + 1 in
      let strip = List.map (Result.map_error Fault.tag) in
      strip (Parallel.map_result ~jobs:1 f xs)
      = strip (Parallel.map_result ~jobs f xs))

(* ---- Checkpoint ---- *)

let with_temp f =
  let path = Filename.temp_file "mipp" ".ckpt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let record start items =
  { Checkpoint.r_start = start; r_count = List.length items; r_items = items }

let vec i = [| 1.0 +. (0.125 *. float_of_int i); float_of_int (1000 * i); 3.5; 1e-6 |]

let open_exn path header = Fault.or_raise (Checkpoint.open_ path ~header)

let check_records expected got =
  Alcotest.(check int) "records" (List.length expected) (List.length got);
  List.iter2
    (fun (a : Checkpoint.record) (b : Checkpoint.record) ->
      Alcotest.(check (pair int int)) "range" (a.r_start, a.r_count)
        (b.r_start, b.r_count);
      List.iter2
        (fun x y ->
          match (x, y) with
          | Ok x, Ok y ->
            (* raw-bits floats round-trip bit-exactly, NaN included *)
            Alcotest.(check (array int64)) "floats identical"
              (Array.map Int64.bits_of_float x) (Array.map Int64.bits_of_float y)
          | Error (Fault.Bad_input _ as x), Error y ->
            (* the context is not logged *)
            Alcotest.(check string) "fault tag" (Fault.tag x) (Fault.tag y)
          | Error x, Error y ->
            Alcotest.(check string) "fault" (Fault.to_line x) (Fault.to_line y)
          | _ -> Alcotest.fail "Ok/Error mismatch")
        a.r_items b.r_items)
    expected got

let test_checkpoint_roundtrip () =
  with_temp (fun path ->
      Sys.remove path;
      let records =
        [ record 0 [ Ok (vec 0); Error (Fault.numeric "non-finite watts"); Ok [| Float.nan; infinity |] ];
          record 3 [ Ok [||] ];
          record 4 [ Error (Fault.numeric "two  spaces, no newline");
                     Error (Fault.bad_input ~context:"x" "bad") ] ]
      in
      let t, restored = open_exn path "points n=5 workload=gcc" in
      Alcotest.(check int) "fresh log" 0 (List.length restored);
      Checkpoint.append t records;
      Checkpoint.close t;
      let t, back = open_exn path "points n=5 workload=gcc" in
      Checkpoint.close t;
      check_records records back)

let test_checkpoint_torn_tail () =
  with_temp (fun path ->
      Sys.remove path;
      let header = "points n=4 workload=mcf" in
      let t, _ = open_exn path header in
      Checkpoint.append t [ record 0 [ Ok (vec 0) ]; record 1 [ Ok (vec 1) ] ];
      Checkpoint.close t;
      (* simulate a kill mid-append: half a record, bad CRC *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "deadbeef 2 1 ok 4 3ff8";
      close_out oc;
      let t, back = open_exn path header in
      check_records [ record 0 [ Ok (vec 0) ]; record 1 [ Ok (vec 1) ] ] back;
      (* the torn tail was truncated away: a new record lands on a fresh
         line and survives the next open *)
      Checkpoint.append t [ record 2 [ Ok (vec 2) ] ];
      Checkpoint.close t;
      let t, back = open_exn path header in
      Checkpoint.close t;
      Alcotest.(check (list int)) "appended after the torn tail" [ 0; 1; 2 ]
        (List.map (fun (r : Checkpoint.record) -> r.r_start) back))

let test_checkpoint_header_mismatch () =
  with_temp (fun path ->
      Sys.remove path;
      let t, _ = open_exn path "points n=3 workload=gcc" in
      Checkpoint.close t;
      match Checkpoint.open_ path ~header:"points n=7 workload=gcc" with
      | Ok (t, _) ->
        Checkpoint.close t;
        Alcotest.fail "accepted a checkpoint from a different sweep"
      | Error (Fault.Bad_input { message; _ }) ->
        Alcotest.(check bool) "header mismatch diagnostic" true
          (String.length message >= 15
          && String.sub message 0 15 = "header mismatch")
      | Error ft -> Alcotest.failf "wrong fault: %s" (Fault.to_string ft))

let test_checkpoint_empty_file_is_fresh () =
  (* A file touched in advance is a fresh log, not a corrupt one. *)
  with_temp (fun path ->
      let t, restored = open_exn path "points n=2 workload=gcc" in
      Checkpoint.append t [ record 0 [ Ok (vec 0) ] ];
      Checkpoint.close t;
      Alcotest.(check int) "nothing restored" 0 (List.length restored);
      let t, back = open_exn path "points n=2 workload=gcc" in
      Checkpoint.close t;
      check_records [ record 0 [ Ok (vec 0) ] ] back)

let framed payload = Crc32.to_hex (Crc32.string payload) ^ " " ^ payload ^ "\n"

let test_checkpoint_old_versions_refused () =
  (* Well-formed logs of the older per-point (v2) and per-block streaming
     (v3) formats: their headers bind no evaluation inputs, so they are
     refused rather than resumed. *)
  List.iter
    (fun (header, line) ->
      with_temp (fun path ->
          Out_channel.with_open_bin path (fun oc ->
              output_string oc (framed header);
              output_string oc (framed line));
          match Checkpoint.open_ path ~header:"points n=243 workload=gcc" with
          | Ok (t, _) ->
            Checkpoint.close t;
            Alcotest.failf "accepted an old log (%s)" header
          | Error (Fault.Bad_input { message; _ }) ->
            Alcotest.(check bool) "says the format is unsupported" true
              (String.length message >= 11
              && String.sub message 0 11 = "unsupported");
            (* refused, not rewritten *)
            Alcotest.(check int) "file untouched" 2 (Kill_log.n_records path + 1)
          | Error ft -> Alcotest.failf "wrong fault: %s" (Fault.to_string ft)))
    [ ("header 2 243 6 gcc", "ok 0 3ff0000000000000 3ff0000000000000 \
        3ff0000000000000 3ff0000000000000 3ff0000000000000 3ff0000000000000");
      ("header 3 243 14 4096 0 243 gcc", "blk 0 0") ]

let () =
  Alcotest.run "fault"
    [
      ( "crc32",
        [
          Alcotest.test_case "standard vectors" `Quick test_crc32_vectors;
          Alcotest.test_case "hex round-trip" `Quick test_crc32_hex_roundtrip;
        ] );
      ( "fault",
        [
          Alcotest.test_case "line round-trip" `Quick test_fault_line_roundtrip;
          Alcotest.test_case "timeout/overload exact round-trip" `Quick
            test_serving_faults_roundtrip_exactly;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "per-item isolation" `Quick test_map_result_isolation;
          Alcotest.test_case "fault passthrough" `Quick
            test_map_result_passes_faults_through;
          QCheck_alcotest.to_alcotest prop_map_result_jobs_invariant;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "round-trip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "torn tail tolerated" `Quick test_checkpoint_torn_tail;
          Alcotest.test_case "header mismatch refused" `Quick
            test_checkpoint_header_mismatch;
          Alcotest.test_case "empty file is a fresh log" `Quick
            test_checkpoint_empty_file_is_fresh;
          Alcotest.test_case "v2 and v3 logs refused" `Quick
            test_checkpoint_old_versions_refused;
        ] );
    ]
