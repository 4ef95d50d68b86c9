(** Design-space sweeps (§6.2.4, §7).

    The whole point of the micro-architecture independent model: profile
    once, then evaluate every design point analytically.  [model_sweep]
    does exactly that; [sim_sweep] is the detailed-simulation
    counterpart used as ground truth (and for the speedup comparison).

    The [_result] variants are the fault-isolated engine: a design point
    that crashes or produces non-finite numbers yields an [Error] for
    that point alone, every other point still evaluates, and progress
    can be checkpointed to disk and resumed bit-identically after a
    kill. *)

type eval = {
  sw_index : int;  (** position in the config list: the design-point id *)
  sw_config : Uarch.t;
  sw_cpi : float;
  sw_cycles : float;
  sw_watts : float;
  sw_seconds : float;
  sw_energy_j : float;
  sw_ed2p : float;
}

val of_prediction :
  ?cycles:float -> Uarch.t -> index:int -> Interval_model.prediction -> eval
(** [?cycles] overrides the prediction's cycle count — the hook the
    grey-box calibrator uses to correct a prediction: CPI, seconds,
    energy and ED²P are all re-derived from the corrected cycles, while
    the activity-based power estimate keeps the analytical activity
    factors. *)

val of_sim : Uarch.t -> index:int -> Sim_result.t -> eval

type point_result = (eval, Fault.t) result

(** The outcome of a per-point sweep. *)
type 'a run = {
  o_results : ('a, Fault.t) result list;
      (** one per point, in point order, independent of [jobs] *)
  o_ok : int;
  o_failed : int;  (** faulted plus (without keep-going) skipped points *)
  o_resumed : int;  (** points restored from the checkpoint log *)
}

type outcome = eval run

val check_numeric : eval -> (eval, Fault.t) result
(** Reject an eval containing non-finite numbers as a per-point
    [Fault.numeric] — NaN silently corrupts Pareto fronts and argmin
    comparisons downstream. *)

(** {1 The sweep engine}

    Every sweep is one engine: it walks a range of point indices in
    contiguous blocks, runs [jobs] blocks at a time (one per worker
    domain, each evaluating its points sequentially in index order), and
    with [?checkpoint] appends every completed group to a
    {!Checkpoint} log, one record per block.  A point that raises or
    fails its check is a per-point [Error]; every other point still
    evaluates.  [keep_going] (default [true]) evaluates every point
    regardless of faults; with [~keep_going:false] the sweep stops after
    the group holding the first fault and marks the later points as
    skipped (not logged, so a later resume still evaluates them).

    [?checkpoint PATH] creates the log or resumes it.  The log's header
    binds what is swept and over which inputs (workload, config list
    digest or space name, profile digest or simulation inputs); a log
    with any other header, or from an older format version, is refused
    with a [Fault.Bad_input] before any work.  On resume the points the
    log holds are restored and only the rest are evaluated, and the
    result is bit-identical to an uninterrupted run: floats round-trip
    through the log as raw IEEE-754 bit patterns.  A killed run loses at
    most its in-flight group.  The header digest is computed only when
    a checkpoint is given.

    The outer [Error] is reserved for whole-sweep failures: an invalid
    profile, a bad range or block size, an unreadable or mismatched
    log.

    Two consumers decide what a block keeps: the per-point sweeps below
    keep every point's result; the streaming sweeps fold a block into a
    fixed-width summary. *)

(** {2 Per-point sweeps}

    [?block_size] defaults to [max 1 (min 64 (ceil (n / jobs)))]: one
    group of blocks fans out over every worker, and a kill loses at most
    64 points per block.  The results do not depend on it, so a
    per-point log resumes under any block size or [jobs]. *)

val run_points :
  ?jobs:int ->
  ?checkpoint:string ->
  ?block_size:int ->
  ?keep_going:bool ->
  identity:(unit -> string) ->
  n_points:int ->
  width:int ->
  encode:('a -> float array) ->
  decode:(index:int -> float array -> 'a) ->
  check:('a -> ('a, Fault.t) result) ->
  eval_point:(int -> 'a) ->
  unit ->
  ('a run, Fault.t) result
(** The per-point engine underneath {!model_sweep_result} /
    {!sim_sweep_result}, exposed for other point-matrix evaluations (the
    model-vs-simulator validation harness in [lib/validate] is built on
    it).  [eval_point i] evaluates point [i] of [n_points]; a raised
    exception or a value rejected by [check] becomes a per-point
    [Error].  [encode]/[decode] round-trip a payload through a
    width-[width] float vector of the log; anything config-shaped is
    reconstructed from the index by [decode].  [identity ()] names the
    evaluation and its inputs in the log header. *)

val model_sweep_result :
  ?options:Interval_model.options ->
  ?jobs:int ->
  ?checkpoint:string ->
  ?block_size:int ->
  ?keep_going:bool ->
  ?adjust:(Uarch.t -> Interval_model.prediction -> float) ->
  profile:Profile.t ->
  Uarch.t list ->
  (outcome, Fault.t) result
(** Fault-isolated analytical sweep over a config list.  The profile is
    first run through {!Profile.validate} ([Error] on a corrupt profile,
    before any work); config-independent StatStack structures are built
    once before the evaluation fans out.  Each block evaluates its points
    with a fresh staged evaluator (as {!model_evaluator}), bit-identical
    to a plain [Interval_model.predict] per point.  The log header binds
    the workload, a digest of the config list and the MD5 of the
    profile's binary form.

    [?adjust config pred] returns a corrected cycle count for the point
    (see {!of_prediction}); it must be deterministic and thread-safe —
    it runs on the worker domains, and checkpoints store adjusted
    values, so resume an adjusted sweep only with the same adjustment. *)

val sim_sweep_result :
  ?jobs:int ->
  ?checkpoint:string ->
  ?block_size:int ->
  ?keep_going:bool ->
  spec:Workload_spec.t ->
  seed:int ->
  n_instructions:int ->
  Uarch.t list ->
  (outcome, Fault.t) result
(** Detailed-simulation counterpart; each design point simulates the
    workload from the same seed, so results are independent of [jobs].
    The log header binds the config list and (spec, seed,
    [n_instructions]). *)

(** {2 Streaming sweeps}

    A per-point sweep holds one result per point — fine at a few hundred
    points, fatal at a million.  A streaming sweep walks a (sub-)range of
    a generated {!Config_space.t} and folds each block into a
    fixed-width accumulator vector plus a local Pareto front, so peak
    RSS and checkpoint size scale with the block count, never the point
    count.

    Blocks merge in ascending order, and every min/argmin tie resolves
    to the lowest index — the summary is a pure function of (range,
    block size), independent of [jobs] and bit-identical across a
    kill-and-resume.  Its float sums depend on the block size, so the
    default is a fixed {!default_block_size}, never derived from [jobs],
    and the log header binds the block size and the range. *)

val default_block_size : int
(** Points per streaming block (4096). *)

type stream_summary = {
  ss_n_points : int;  (** size of the whole space *)
  ss_offset : int;  (** first index of the swept sub-range *)
  ss_length : int;  (** points in the swept sub-range *)
  ss_block_size : int;
  ss_n_blocks : int;
  ss_resumed_blocks : int;  (** blocks restored from the checkpoint *)
  ss_evaluated_blocks : int;  (** blocks evaluated by this run *)
  ss_skipped_blocks : int;  (** blocks skipped after a [keep_going:false] stop *)
  ss_ok : int;
  ss_failed : int;
  ss_sum_cpi : float;  (** sums are over [ss_ok] successful points *)
  ss_sum_cycles : float;
  ss_sum_watts : float;
  ss_sum_seconds : float;
  ss_sum_energy_j : float;
  ss_sum_ed2p : float;
  ss_best_seconds : (int * float) option;  (** (point id, value); ties → lowest id *)
  ss_best_energy : (int * float) option;
  ss_best_ed2p : (int * float) option;
  ss_front : Pareto.point list;  (** global Pareto front of the swept range *)
  ss_front_evals : eval list;
      (** full evals of [ss_front]: carried by the blocks this run
          evaluated, and re-evaluated only for points of resumed blocks
          (a front point whose re-evaluation faults is omitted) *)
  ss_sample_fault : Fault.t option;
      (** first fault seen by this run (resumed blocks only carry counts) *)
}

val run_stream :
  ?jobs:int ->
  ?checkpoint:string ->
  ?block_size:int ->
  ?keep_going:bool ->
  ?on_point:(int -> point_result -> unit) ->
  workload:string ->
  n_points:int ->
  ?offset:int ->
  ?length:int ->
  eval_point:(int -> eval) ->
  unit ->
  (stream_summary, Fault.t) result
(** [run_stream ~workload ~n_points ~eval_point ()] streams over points
    [offset, offset + length) (default: the whole space) in
    [block_size]-point blocks.  [eval_point] must be deterministic; a
    raised exception or a non-finite eval faults that point alone.  It is
    called once per point of every block this run evaluates, and again
    only for front points of resumed blocks (to rebuild [ss_front_evals]).

    With [?checkpoint], the log header binds the workload name besides
    the range and block size.

    [?on_point] observes every freshly evaluated point (called from the
    worker domains, in index order within each block; resumed blocks do
    not replay).  [keep_going], checkpointing and the outer [Error] are
    those of the engine. *)

val model_evaluator :
  ?options:Interval_model.options ->
  ?adjust:(Uarch.t -> Interval_model.prediction -> float) ->
  profile:Profile.t ->
  Config_space.t ->
  int ->
  eval
(** [model_evaluator ~profile space] is a fresh staged point evaluator:
    applied to [i] it returns, bit for bit, what
    [of_prediction ?cycles u ~index:i (Interval_model.predict ~options u profile)]
    gives for [u = Config_space.config_of_index space i] (with [cycles]
    from [?adjust u pred]).  It keeps the last
    {!Interval_model.core_stage} result and the last prediction with their
    configurations, and reuses them while the next point's stage inputs
    are structurally equal ({!Interval_model.same_core_inputs},
    {!Interval_model.same_inputs}); a reused prediction gets the point's
    own [pr_uarch].  Points taken in index order, where the inner axes
    vary memory and operating point, mostly skip the core stage or the
    whole model.  The state makes an evaluator single-threaded: use one
    per block, request or domain.  {!model_sweep_stream} makes one per
    block; the daemon one per sweep request. *)

val model_sweep_stream :
  ?options:Interval_model.options ->
  ?jobs:int ->
  ?checkpoint:string ->
  ?block_size:int ->
  ?keep_going:bool ->
  ?on_point:(int -> point_result -> unit) ->
  ?offset:int ->
  ?length:int ->
  ?adjust:(Uarch.t -> Interval_model.prediction -> float) ->
  profile:Profile.t ->
  Config_space.t ->
  (stream_summary, Fault.t) result
(** {!run_stream} over a generated config space with the analytical
    model: configs are built per index ({!Config_space.config_of_index})
    and dropped after evaluation — no config list is ever allocated.
    Each block evaluates its points with its own {!model_evaluator}, so
    the summary equals {!run_stream}'s with a plain per-point
    [Interval_model.predict] bit for bit, for any [jobs] and block size.
    Profile validation and StatStack preparation as in
    {!model_sweep_result}.  The log header binds the space name, the
    workload and the MD5 of the profile's binary form. *)

val model_sweep :
  ?options:Interval_model.options ->
  ?jobs:int ->
  ?adjust:(Uarch.t -> Interval_model.prediction -> float) ->
  profile:Profile.t ->
  Uarch.t list ->
  eval list
(** [model_sweep_result] without isolation: the first per-point fault is
    re-raised (a worker crash with its original exception and backtrace,
    other faults as [Fault.Error]).  Results are in config order and
    bit-identical for any [jobs].  Default [jobs = 1] (sequential). *)

val sim_sweep :
  ?jobs:int ->
  spec:Workload_spec.t ->
  seed:int ->
  n_instructions:int ->
  Uarch.t list ->
  eval list

val pareto_points : eval list -> Pareto.point list
(** (delay = seconds, power = watts) points for Pareto analysis. *)

val best_under_power : eval list -> budget_watts:float -> eval option
(** Fastest design that fits the power budget (Table 7.1). *)
