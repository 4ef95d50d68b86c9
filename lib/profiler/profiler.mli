(** The micro-architecture independent profiler (the paper's AIP).

    One pass over the dynamic micro-op stream produces a {!Profile.t}.
    Sampling follows Fig 5.1: a [microtrace_instructions]-long burst is
    analyzed at the start of every [window_instructions]-long window; the
    rest of the window is fast-forwarded.  Reuse-distance bookkeeping
    (last-access tables) and branch-entropy state are maintained across
    the whole stream so distances and histories that span windows stay
    exact; only the *recording* of statistics is sampled.

    The stream can additionally be profiled in [jobs] parallel shards:
    the stream is split into contiguous window-aligned regions, each
    worker domain regenerates the stream from the shared seed,
    fast-forwards to its region, primes its reuse tables and branch
    histories over a [warmup]-instruction window before its region, then
    profiles the region; the per-shard results are merged.  Warm-up
    bounds the error at shard boundaries: an access whose true reuse
    distance would reach back further than the warm-up window is
    misclassified as a cold miss, so the inflation is limited to reuses
    longer than [warmup] instructions.  With an unbounded warm-up
    ([warmup = max_int]) the merged profile is bit-identical to the
    sequential one for any shard count. *)

type config = {
  window_instructions : int;
  microtrace_instructions : int;
  rob_sizes : int array;  (** ROB sizes to profile chains for *)
  line_bytes : int;
  entropy_history_bits : int;
}

val default_config : config
(** 1000-instruction micro-traces every 10_000 instructions; ROB sizes
    16..256 step 16; 64-byte lines; 4-bit branch history. *)

val default_warmup : int
(** Default shard warm-up window: 10_000 instructions (one sampling
    window) — reuses shorter than one full window survive sharding. *)

val profile :
  ?config:config ->
  ?jobs:int ->
  ?warmup:int ->
  Workload_spec.t ->
  seed:int ->
  n_instructions:int ->
  Profile.t
(** [jobs] (default 1) worker domains profile window-aligned stream
    shards in parallel; [warmup] (default {!default_warmup}) instructions
    before each shard's region prime its reuse tables without being
    recorded.  [~jobs:1] runs a single shard covering the whole stream —
    exactly the sequential profiler.  Raises [Invalid_argument] if
    [jobs < 1] or [warmup < 0]. *)

val full_instruction_mix :
  Workload_spec.t -> seed:int -> n_instructions:int -> Isa.Class_counts.t
(** Unsampled micro-op mix over the same stream — the Fig 5.2 baseline. *)

val full_chains :
  ?rob_sizes:int array ->
  Workload_spec.t ->
  seed:int ->
  n_instructions:int ->
  Profile.chain_stats
(** Unsampled dependence-chain profile — the Fig 5.5 baseline.  Memory
    heavy (buffers the whole stream); keep [n_instructions] moderate. *)
