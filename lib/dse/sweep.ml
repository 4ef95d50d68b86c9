type eval = {
  sw_index : int;
  sw_config : Uarch.t;
  sw_cpi : float;
  sw_cycles : float;
  sw_watts : float;
  sw_seconds : float;
  sw_energy_j : float;
  sw_ed2p : float;
}

let make config ~index ~cycles ~instructions ~activity =
  let breakdown = Power.estimate config activity in
  let seconds = Power.seconds_of_cycles config cycles in
  let energy = Power.energy_joules config breakdown ~cycles in
  {
    sw_index = index;
    sw_config = config;
    sw_cpi = (if instructions = 0.0 then 0.0 else cycles /. instructions);
    sw_cycles = cycles;
    sw_watts = breakdown.total_watts;
    sw_seconds = seconds;
    sw_energy_j = energy;
    sw_ed2p = Power.ed2p config breakdown ~cycles;
  }

let of_prediction ?cycles config ~index (p : Interval_model.prediction) =
  make config ~index
    ~cycles:(Option.value cycles ~default:p.pr_cycles)
    ~instructions:p.pr_instructions ~activity:p.pr_activity

let of_sim config ~index (r : Sim_result.t) =
  make config ~index ~cycles:(float_of_int r.r_cycles)
    ~instructions:(float_of_int r.r_instructions) ~activity:r.r_activity

let pareto_points evals =
  List.map
    (fun e ->
      { Pareto.pt_id = e.sw_index; pt_delay = e.sw_seconds; pt_power = e.sw_watts })
    evals

(* ---- Fault isolation ---- *)

type point_result = (eval, Fault.t) result

type 'a run = {
  o_results : ('a, Fault.t) result list;
  o_ok : int;
  o_failed : int;
  o_resumed : int;
}

type outcome = eval run

(* A design point whose prediction came out NaN/infinite is a fault of
   that point, not a value to rank: Pareto fronts and best-under-budget
   comparisons silently misbehave on NaN. *)
let check_numeric (e : eval) =
  let bad name v = if Float.is_finite v then None else Some (name, v) in
  match
    List.find_map
      (fun (n, v) -> bad n v)
      [ ("cpi", e.sw_cpi); ("cycles", e.sw_cycles); ("watts", e.sw_watts);
        ("seconds", e.sw_seconds); ("energy_j", e.sw_energy_j);
        ("ed2p", e.sw_ed2p) ]
  with
  | None -> Ok e
  | Some (name, v) ->
    Error
      (Fault.numeric
         (Printf.sprintf "design point %d: non-finite %s (%h)" e.sw_index name v))

(* ---- The block engine ----

   Every sweep — a list of configs, a validation matrix, a million-point
   generated space — is one walk over a range of point indices in
   contiguous blocks.  Blocks are the unit of everything but evaluation:
   they fan out over [jobs] worker domains, each block evaluating its
   points sequentially in index order; with a log, [jobs] blocks at a
   time, each completed group appended as one record per block; and a
   [keep_going:false] run stops after the group holding the first fault.
   What a block keeps of its points is the consumer's choice: the
   per-point consumer keeps every result ([points]), the streaming
   consumer folds them into a fixed-width summary ([stream]).

   On resume the records already in the log are taken as they are, and
   only the points no record covers are evaluated, in blocks cut at the
   [block_size] grid.  A summary depends on where its blocks start and
   end, so the streaming consumer binds the block size into its header
   and restored blocks always sit on the grid; per-point results do not,
   so a per-point log resumes under any block size, hence any [jobs]. *)

type 'b block =
  | Restored of 'b  (* read back from the checkpoint log *)
  | Fresh of 'b  (* evaluated by this run *)
  | Skipped  (* left out: a [keep_going:false] run stopped first *)

(* The runs of [offset, offset + length) that no [covered] (start, stop)
   range (sorted, disjoint) touches, cut at the block grid, in order. *)
let uncovered ~offset ~length ~block_size covered =
  let hi = offset + length in
  let rec go pos covered acc =
    if pos >= hi then List.rev acc
    else
      match covered with
      | (_, stop) :: rest when stop <= pos -> go pos rest acc
      | (start, stop) :: _ when start <= pos -> go stop covered acc
      | _ ->
        let next = match covered with (start, _) :: _ -> start | [] -> hi in
        let grid = offset + ((((pos - offset) / block_size) + 1) * block_size) in
        let stop = min (min next grid) hi in
        go stop covered ((pos, stop) :: acc)
  in
  go offset covered []

let rec chunks k = function
  | [] -> []
  | l ->
    let rec take i acc = function
      | x :: rest when i > 0 -> take (i - 1) (x :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let hd, tl = take k [] l in
    hd :: chunks k tl

(* Returns every block of the range as (start, stop, block), ascending.
   [header ()] is the log identity, computed only when a checkpoint is
   given; [decode ~start ~count items] is [None] on a record that does
   not fit the consumer, which refuses the log. *)
let run_blocks ?(jobs = 1) ?checkpoint ?(keep_going = true) ~header ~offset
    ~length ~block_size ~eval_block ~encode ~decode ~failed () =
  let log =
    match checkpoint with
    | None -> Ok (None, [])
    | Some path ->
      Result.map
        (fun (t, records) -> (Some t, records))
        (Checkpoint.open_ path ~header:(header ()))
  in
  match log with
  | Error ft -> Error ft
  | Ok (log, records) ->
    Fun.protect
      ~finally:(fun () -> Option.iter Checkpoint.close log)
      (fun () ->
        (* A record overlapping an earlier one (a block written twice) is
           dropped: the first copy already holds the same results. *)
        let rec restore last acc = function
          | [] -> Ok (List.rev acc)
          | (r : Checkpoint.record) :: rest when r.r_start < last ->
            restore last acc rest
          | r :: rest -> (
            let stop = r.r_start + r.r_count in
            let fits = r.r_start >= offset && stop <= offset + length in
            match
              if fits then decode ~start:r.r_start ~count:r.r_count r.r_items
              else None
            with
            | Some b -> restore stop ((r.r_start, stop, Restored b) :: acc) rest
            | None ->
              Error
                (Fault.bad_input
                   ~context:("checkpoint " ^ Option.value checkpoint ~default:"")
                   (Printf.sprintf
                      "record for points [%d, %d) does not belong to this \
                       sweep"
                      r.r_start stop)))
        in
        match
          restore min_int []
            (List.stable_sort
               (fun (a : Checkpoint.record) b -> compare a.r_start b.r_start)
               records)
        with
        | Error ft -> Error ft
        | Ok restored ->
          let pending =
            uncovered ~offset ~length ~block_size
              (List.map (fun (start, stop, _) -> (start, stop)) restored)
          in
          let stopped = ref false in
          let fresh =
            List.concat_map
              (fun group ->
                if !stopped then
                  List.map (fun (start, stop) -> (start, stop, Skipped)) group
                else begin
                  let arr = Array.of_list group in
                  let out =
                    Parallel.map_array ~jobs
                      (fun (start, stop) -> eval_block ~start ~stop)
                      arr
                  in
                  Option.iter
                    (fun t ->
                      Checkpoint.append t
                        (Array.to_list
                           (Array.map2
                              (fun (start, stop) b ->
                                { Checkpoint.r_start = start;
                                  r_count = stop - start;
                                  r_items = encode b })
                              arr out)))
                    log;
                  if (not keep_going) && Array.exists failed out then
                    stopped := true;
                  Array.to_list
                    (Array.map2
                       (fun (start, stop) b -> (start, stop, Fresh b))
                       arr out)
                end)
              (* A group is the unit of logging and of stopping; with
                 neither in play all blocks go out in one fan-out, split
                 into [jobs] contiguous runs. *)
              (if Option.is_none log && keep_going then [ pending ]
               else chunks (max 1 jobs) pending)
          in
          Ok
            (List.merge
               (fun (a, _, _) (b, _, _) -> compare a b)
               restored fresh))

let digest v = Digest.to_hex (Digest.string (Marshal.to_string v [ No_sharing ]))

let profile_digest profile =
  Digest.to_hex (Digest.string (Profile_io.to_binary_string profile))

(* ---- Per-point consumer ---- *)

let skipped_fault i =
  Fault.bad_input ~context:"sweep"
    (Printf.sprintf
       "design point %d skipped: an earlier point failed (run with \
        keep-going to evaluate every point)"
       i)

let points ?(jobs = 1) ?checkpoint ?block_size ?keep_going ~identity
    ~n_points ~width ~encode ~decode ~check ~evaluator () =
  let n = n_points in
  let jobs = max 1 jobs in
  (* At most [n / jobs] points per block, so the blocks spread over every
     worker; at most 64, so a kill loses little work. *)
  let block_size =
    Option.value block_size ~default:(max 1 (min 64 ((n + jobs - 1) / jobs)))
  in
  if block_size < 1 then
    Error
      (Fault.bad_input ~context:"sweep"
         (Printf.sprintf "block size %d, must be >= 1" block_size))
  else
    let eval_block ~start ~stop =
      Array.map
        (fun r -> Result.bind r check)
        (Parallel.map_result_array ~jobs:1 (evaluator ())
           (Array.init (stop - start) (fun k -> start + k)))
    in
    let decode_block ~start ~count items =
      if List.length items <> count then None
      else
        let decoded =
          List.mapi
            (fun k -> function
              | Ok v when Array.length v = width ->
                Some (Ok (decode ~index:(start + k) v))
              | Ok _ -> None
              | Error ft -> Some (Error ft))
            items
        in
        if List.mem None decoded then None
        else Some (Array.of_list (List.map Option.get decoded))
    in
    Result.map
      (fun blocks ->
        let results = Array.make n None and resumed = ref 0 in
        List.iter
          (fun (start, stop, block) ->
            let fill b =
              Array.iteri (fun k r -> results.(start + k) <- Some r) b
            in
            match block with
            | Restored b ->
              resumed := !resumed + (stop - start);
              fill b
            | Fresh b -> fill b
            | Skipped ->
              for i = start to stop - 1 do
                results.(i) <- Some (Error (skipped_fault i))
              done)
          blocks;
        let o_results = Array.to_list (Array.map Option.get results) in
        let ok = List.length (List.filter Result.is_ok o_results) in
        { o_results; o_ok = ok; o_failed = n - ok; o_resumed = !resumed })
      (run_blocks ~jobs ?checkpoint ?keep_going
         ~header:(fun () -> Printf.sprintf "points n=%d %s" n (identity ()))
         ~offset:0 ~length:n ~block_size ~eval_block
         ~encode:(fun b -> Array.to_list (Array.map (Result.map encode) b))
         ~decode:decode_block ~failed:(Array.exists Result.is_error) ())

let run_points ?jobs ?checkpoint ?block_size ?keep_going ~identity ~n_points
    ~width ~encode ~decode ~check ~eval_point () =
  points ?jobs ?checkpoint ?block_size ?keep_going ~identity ~n_points ~width
    ~encode ~decode ~check ~evaluator:(fun () -> eval_point) ()

let vec_of_eval e =
  [| e.sw_cpi; e.sw_cycles; e.sw_watts; e.sw_seconds; e.sw_energy_j;
     e.sw_ed2p |]

let eval_of_vec config ~index v =
  {
    sw_index = index;
    sw_config = config;
    sw_cpi = v.(0);
    sw_cycles = v.(1);
    sw_watts = v.(2);
    sw_seconds = v.(3);
    sw_energy_j = v.(4);
    sw_ed2p = v.(5);
  }

(* The design sweeps over an explicit config list: the payload is the six
   [eval] numbers, the config is recovered from the point index. *)
let eval_points ?jobs ?checkpoint ?block_size ?keep_going ~identity ~evaluator
    configs =
  points ?jobs ?checkpoint ?block_size ?keep_going
    ~n_points:(Array.length configs)
    ~identity:(fun () ->
      Printf.sprintf "%s configs=%s" (identity ()) (digest configs))
    ~width:6 ~encode:vec_of_eval
    ~decode:(fun ~index v -> eval_of_vec configs.(index) ~index v)
    ~check:check_numeric ~evaluator ()

(* The staged point evaluator: it keeps the last core-stage result and the
   last prediction with the configs they were computed for, and reuses
   them while the next point's stage inputs are structurally equal.  In
   index order the inner axes of a space (memory, operating point) then
   leave most points a [finish] or a copy away from their prediction.  A
   reused prediction differs from the stored one only in [pr_uarch], which
   is exactly what a fresh [predict] would give. *)
let staged_evaluator ~options ?adjust ~profile config_of_index =
  let last_core = ref None and last_pred = ref None in
  fun index ->
    let config = config_of_index index in
    let pred =
      match !last_pred with
      | Some (u, pred) when Interval_model.same_inputs u config ->
        { pred with Interval_model.pr_uarch = config.Uarch.name }
      | _ ->
        let core =
          match !last_core with
          | Some (u, core) when Interval_model.same_core_inputs u config -> core
          | _ ->
            let core = Interval_model.core_stage ~options config profile in
            last_core := Some (config, core);
            core
        in
        let pred = Interval_model.finish core config in
        last_pred := Some (config, pred);
        pred
    in
    let cycles = Option.map (fun f -> f config pred) adjust in
    of_prediction ?cycles config ~index pred

let model_evaluator ?(options = Interval_model.default_options) ?adjust
    ~profile space =
  staged_evaluator ~options ?adjust ~profile (Config_space.config_of_index space)

(* Validate the profile and build every config-independent StatStack
   structure once, before the fan-out: the worker domains then only read
   the memo tables, and the per-static-load lazies are already forced (a
   racing first force would raise [Lazy.Undefined]). *)
let prepare ~options profile =
  Result.map
    (fun () ->
      match options.Interval_model.combine with
      | `Separate -> Profile.prepare profile
      | `Combined -> ())
    (Profile.validate profile)

let model_sweep_result ?(options = Interval_model.default_options) ?jobs
    ?checkpoint ?block_size ?keep_going ?adjust ~profile configs =
  Result.bind (prepare ~options profile) (fun () ->
      let configs = Array.of_list configs in
      eval_points ?jobs ?checkpoint ?block_size ?keep_going
        ~identity:(fun () ->
          Printf.sprintf "model workload=%s profile=%s"
            profile.Profile.p_workload (profile_digest profile))
        ~evaluator:(fun () ->
          staged_evaluator ~options ?adjust ~profile (Array.get configs))
        configs)

let sim_sweep_result ?jobs ?checkpoint ?block_size ?keep_going ~spec ~seed
    ~n_instructions configs =
  let configs = Array.of_list configs in
  eval_points ?jobs ?checkpoint ?block_size ?keep_going
    ~identity:(fun () ->
      Printf.sprintf "sim workload=%s inputs=%s" spec.Workload_spec.wname
        (digest (spec, seed, n_instructions)))
    ~evaluator:(fun () index ->
      let config = configs.(index) in
      of_sim config ~index (Simulator.run config spec ~seed ~n_instructions))
    configs

(* ---- Streaming consumer ----

   The per-point consumer holds one result per point — fine at 10^3
   points, fatal at 10^6.  The streaming consumer folds each block into a
   fixed-width accumulator vector plus a local Pareto front the moment it
   completes and keeps only that, so peak RSS and checkpoint size depend
   on the block count, never the point count.

   Determinism: blocks merge in ascending order, and all min/argmin
   updates use strict [<], so the lowest index wins every tie.  The
   merged summary is therefore a pure function of (range, block_size) —
   independent of [jobs] and of where a kill-and-resume split the run. *)

let stream_stats_width = 14

(* Stats-vector slots. *)
let s_ok = 0

let s_failed = 1
let s_sum_cpi = 2
let s_sum_cycles = 3
let s_sum_watts = 4
let s_sum_seconds = 5
let s_sum_energy = 6
let s_sum_ed2p = 7
let s_min_seconds = 8
let s_arg_seconds = 9
let s_min_energy = 10
let s_arg_energy = 11
let s_min_ed2p = 12
let s_arg_ed2p = 13

let init_stats () =
  let stats = Array.make stream_stats_width 0.0 in
  stats.(s_min_seconds) <- infinity;
  stats.(s_min_energy) <- infinity;
  stats.(s_min_ed2p) <- infinity;
  stats.(s_arg_seconds) <- -1.0;
  stats.(s_arg_energy) <- -1.0;
  stats.(s_arg_ed2p) <- -1.0;
  stats

type stream_summary = {
  ss_n_points : int;
  ss_offset : int;
  ss_length : int;
  ss_block_size : int;
  ss_n_blocks : int;
  ss_resumed_blocks : int;
  ss_evaluated_blocks : int;
  ss_skipped_blocks : int;
  ss_ok : int;
  ss_failed : int;
  ss_sum_cpi : float;
  ss_sum_cycles : float;
  ss_sum_watts : float;
  ss_sum_seconds : float;
  ss_sum_energy_j : float;
  ss_sum_ed2p : float;
  ss_best_seconds : (int * float) option;
  ss_best_energy : (int * float) option;
  ss_best_ed2p : (int * float) option;
  ss_front : Pareto.point list;
  ss_front_evals : eval list;
  ss_sample_fault : Fault.t option;
}

(* What a streaming block keeps.  Only [sb_stats] and [sb_front] go to
   the log; a restored block has no evals and no fault sample. *)
type summary_block = {
  sb_stats : float array;
  sb_front : Pareto.point list;
  sb_evals : eval list;  (* the evals of [sb_front] *)
  sb_fault : Fault.t option;  (* the block's first fault *)
}

(* Evaluate points [start, stop) sequentially in index order, folding
   them into a stats vector and a local Pareto front.  Reuses
   [Parallel.map_result ~jobs:1] purely for its exception-capture
   semantics, so a crashing point faults exactly as in a per-point
   sweep. *)
let eval_summary_block ~eval_point ~on_point ~start ~stop =
  let stats = init_stats () in
  let first_fault = ref None in
  let oks = Array.make (stop - start) None in
  let idxs = List.init (stop - start) (fun k -> start + k) in
  let results = Parallel.map_result ~jobs:1 eval_point idxs in
  List.iter2
    (fun i r ->
      let r = Result.bind r check_numeric in
      (match on_point with Some f -> f i r | None -> ());
      match r with
      | Error ft ->
        stats.(s_failed) <- stats.(s_failed) +. 1.0;
        if Option.is_none !first_fault then first_fault := Some ft
      | Ok e ->
        stats.(s_ok) <- stats.(s_ok) +. 1.0;
        stats.(s_sum_cpi) <- stats.(s_sum_cpi) +. e.sw_cpi;
        stats.(s_sum_cycles) <- stats.(s_sum_cycles) +. e.sw_cycles;
        stats.(s_sum_watts) <- stats.(s_sum_watts) +. e.sw_watts;
        stats.(s_sum_seconds) <- stats.(s_sum_seconds) +. e.sw_seconds;
        stats.(s_sum_energy) <- stats.(s_sum_energy) +. e.sw_energy_j;
        stats.(s_sum_ed2p) <- stats.(s_sum_ed2p) +. e.sw_ed2p;
        if e.sw_seconds < stats.(s_min_seconds) then begin
          stats.(s_min_seconds) <- e.sw_seconds;
          stats.(s_arg_seconds) <- float_of_int i
        end;
        if e.sw_energy_j < stats.(s_min_energy) then begin
          stats.(s_min_energy) <- e.sw_energy_j;
          stats.(s_arg_energy) <- float_of_int i
        end;
        if e.sw_ed2p < stats.(s_min_ed2p) then begin
          stats.(s_min_ed2p) <- e.sw_ed2p;
          stats.(s_arg_ed2p) <- float_of_int i
        end;
        oks.(i - start) <- Some e)
    idxs results;
  let front =
    Pareto.frontier (pareto_points (List.filter_map Fun.id (Array.to_list oks)))
  in
  {
    sb_stats = stats;
    sb_front = front;
    sb_evals =
      List.map (fun (p : Pareto.point) -> Option.get oks.(p.pt_id - start)) front;
    sb_fault = !first_fault;
  }

(* One log item per block: the stats vector followed by the front as
   (id, delay, power) triples; ids are exact as floats below 2^53. *)
let encode_summary b =
  [
    Ok
      (Array.append b.sb_stats
         (Array.of_list
            (List.concat_map
               (fun (p : Pareto.point) ->
                 [ float_of_int p.pt_id; p.pt_delay; p.pt_power ])
               b.sb_front)));
  ]

let decode_summary ~start:_ ~count:_ = function
  | [ Ok v ]
    when Array.length v >= stream_stats_width
         && (Array.length v - stream_stats_width) mod 3 = 0 ->
    let at j = stream_stats_width + (3 * j) in
    Some
      {
        sb_stats = Array.sub v 0 stream_stats_width;
        sb_front =
          List.init
            ((Array.length v - stream_stats_width) / 3)
            (fun j ->
              { Pareto.pt_id = int_of_float v.(at j);
                pt_delay = v.(at j + 1); pt_power = v.(at j + 2) });
        sb_evals = [];
        sb_fault = None;
      }
  | _ -> None

let default_block_size = 4096

(* [evaluator ()] makes a point evaluator for one block: each block (and
   the re-derivation of resumed front points) gets a fresh one, so any
   state an evaluator keeps belongs to one block and the summary cannot
   depend on [jobs]. *)
let stream ?jobs ?checkpoint ?(block_size = default_block_size) ?keep_going
    ?on_point ~identity ~n_points ?(offset = 0) ?length ~evaluator () =
  let length = match length with Some l -> l | None -> n_points - offset in
  if offset < 0 || length < 0 || offset > n_points - length then
    Error
      (Fault.bad_input ~context:"stream sweep"
         (Printf.sprintf "sub-range [%d, %d) outside the %d-point space"
            offset (offset + length) n_points))
  else if block_size < 1 then
    Error
      (Fault.bad_input ~context:"stream sweep"
         (Printf.sprintf "block size %d, must be >= 1" block_size))
  else
    Result.map
      (fun blocks ->
        let count f = List.length (List.filter (fun (_, _, b) -> f b) blocks) in
        let kept =
          List.filter_map
            (function
              | _, _, (Restored b | Fresh b) -> Some b | _, _, Skipped -> None)
            blocks
        in
        (* Merge in ascending block order: blocks cover consecutive
           ascending index ranges, so strict [<] keeps the lowest index
           across blocks exactly as it did within them. *)
        let sums = init_stats () in
        List.iter
          (fun b ->
            let st = b.sb_stats in
            for k = s_ok to s_sum_ed2p do
              sums.(k) <- sums.(k) +. st.(k)
            done;
            let merge_min m a =
              if st.(m) < sums.(m) then begin
                sums.(m) <- st.(m);
                sums.(a) <- st.(a)
              end
            in
            merge_min s_min_seconds s_arg_seconds;
            merge_min s_min_energy s_arg_energy;
            merge_min s_min_ed2p s_arg_ed2p)
          kept;
        let front = Pareto.frontier (List.concat_map (fun b -> b.sb_front) kept) in
        (* Freshly evaluated blocks carried their front evals; only
           points of restored blocks are evaluated again. *)
        let carried = Hashtbl.create 64 in
        List.iter
          (fun b -> List.iter (fun e -> Hashtbl.replace carried e.sw_index e) b.sb_evals)
          kept;
        let missing =
          List.filter_map
            (fun (p : Pareto.point) ->
              if Hashtbl.mem carried p.pt_id then None else Some p.pt_id)
            front
        in
        List.iter2
          (fun id r -> Result.iter (Hashtbl.replace carried id) r)
          missing
          (Parallel.map_result ~jobs:1 (evaluator ()) missing);
        let best m a =
          if sums.(a) < 0.0 then None else Some (int_of_float sums.(a), sums.(m))
        in
        {
          ss_n_points = n_points;
          ss_offset = offset;
          ss_length = length;
          ss_block_size = block_size;
          ss_n_blocks = (if length = 0 then 0 else ((length - 1) / block_size) + 1);
          ss_resumed_blocks = count (function Restored _ -> true | _ -> false);
          ss_evaluated_blocks = count (function Fresh _ -> true | _ -> false);
          ss_skipped_blocks = count (function Skipped -> true | _ -> false);
          ss_ok = int_of_float sums.(s_ok);
          ss_failed = int_of_float sums.(s_failed);
          ss_sum_cpi = sums.(s_sum_cpi);
          ss_sum_cycles = sums.(s_sum_cycles);
          ss_sum_watts = sums.(s_sum_watts);
          ss_sum_seconds = sums.(s_sum_seconds);
          ss_sum_energy_j = sums.(s_sum_energy);
          ss_sum_ed2p = sums.(s_sum_ed2p);
          ss_best_seconds = best s_min_seconds s_arg_seconds;
          ss_best_energy = best s_min_energy s_arg_energy;
          ss_best_ed2p = best s_min_ed2p s_arg_ed2p;
          ss_front = front;
          ss_front_evals =
            List.filter_map
              (fun (p : Pareto.point) -> Hashtbl.find_opt carried p.pt_id)
              front;
          ss_sample_fault =
            List.find_map
              (function _, _, Fresh b -> b.sb_fault | _ -> None)
              blocks;
        })
      (run_blocks ?jobs ?checkpoint ?keep_going
         ~header:(fun () ->
           Printf.sprintf "summary n=%d offset=%d length=%d block=%d %s"
             n_points offset length block_size (identity ()))
         ~offset ~length ~block_size
         ~eval_block:(fun ~start ~stop ->
           eval_summary_block ~eval_point:(evaluator ()) ~on_point ~start ~stop)
         ~encode:encode_summary ~decode:decode_summary
         ~failed:(fun b -> b.sb_stats.(s_failed) > 0.0)
         ())

let run_stream ?jobs ?checkpoint ?block_size ?keep_going ?on_point ~workload
    ~n_points ?offset ?length ~eval_point () =
  stream ?jobs ?checkpoint ?block_size ?keep_going ?on_point
    ~identity:(fun () -> "workload=" ^ workload)
    ~n_points ?offset ?length ~evaluator:(fun () -> eval_point) ()

let model_sweep_stream ?(options = Interval_model.default_options) ?jobs
    ?checkpoint ?block_size ?keep_going ?on_point ?offset ?length ?adjust
    ~profile space =
  Result.bind (prepare ~options profile) (fun () ->
      stream ?jobs ?checkpoint ?block_size ?keep_going ?on_point
        ~identity:(fun () ->
          Printf.sprintf "model space=%s workload=%s profile=%s"
            (Config_space.name space) profile.Profile.p_workload
            (profile_digest profile))
        ~n_points:(Config_space.size space) ?offset ?length
        ~evaluator:(fun () -> model_evaluator ~options ?adjust ~profile space)
        ())

(* ---- Legacy raising interface ---- *)

(* Kept for callers that want a plain eval list and exception-on-failure
   semantics; a [Worker_crash] re-raises the original exception with its
   backtrace, so pre-isolation behavior is preserved exactly. *)
let first_error outcome =
  List.find_map (function Error ft -> Some ft | Ok _ -> None) outcome.o_results

let evals_exn = function
  | Error ft -> Fault.raise_error ft
  | Ok outcome -> (
    match first_error outcome with
    | Some ft -> Fault.raise_error ft
    | None ->
      List.map
        (function Ok e -> e | Error _ -> assert false)
        outcome.o_results)

let model_sweep ?options ?jobs ?adjust ~profile configs =
  evals_exn (model_sweep_result ?options ?jobs ?adjust ~profile configs)

let sim_sweep ?jobs ~spec ~seed ~n_instructions configs =
  evals_exn (sim_sweep_result ?jobs ~spec ~seed ~n_instructions configs)

let best_under_power evals ~budget_watts =
  List.fold_left
    (fun best e ->
      if e.sw_watts > budget_watts then best
      else
        match best with
        | None -> Some e
        | Some b -> if e.sw_seconds < b.sw_seconds then Some e else best)
    None evals
