(** Linear branch entropy (§3.5, Eq 3.13–3.15).

    For every static branch [b] and local history pattern [H] the profiler
    keeps taken/not-taken counts; the per-pattern linear entropy is
    [E(p) = 2 min(p, 1-p)] with the Laplace-smoothed
    [p = (T+1)/(T+NT+2)], and the workload's entropy is the
    execution-weighted average over all (b, H).  The metric is
    micro-architecture independent: it is collected once and converted to
    a miss rate for any concrete predictor by {!Entropy_model}. *)

type t

val create : ?history_bits:int -> unit -> t
(** Default history length: 8 outcomes.  Short histories (4 bits) give
    better-populated per-pattern statistics and, empirically, the best
    linear fit to predictor miss rates on this workload suite. *)

val observe : t -> static_id:int -> taken:bool -> unit
(** Record one outcome of [static_id] under its current local history,
    then shift the outcome into that history.  Raises [Invalid_argument]
    unless [0 <= static_id < 2^(62 - history_bits)]: outcome counts are
    keyed by [static_id lsl history_bits lor history], which must not
    alias another key. *)

val prime : t -> static_id:int -> taken:bool -> unit
(** Update the local-history register of [static_id] without recording the
    outcome in any count.  Used by the sharded profiler's warm-up window to
    converge history registers to their sequential values before real
    observation starts (a [history_bits]-deep warm-up suffices).  Raises
    [Invalid_argument] on the static ids {!observe} rejects. *)

val merge : t -> t -> t
(** Sum the (static branch, history pattern) outcome counts of two
    collectors into a fresh one.  Intended for combining finished
    per-shard collectors; the merged history registers are not meaningful
    and further [observe]s on the result start from empty histories.
    Raises [Invalid_argument] if the history lengths differ. *)

val linear_entropy : t -> float
(** Eq 3.15; 0 = perfectly predictable, 1 = coin flips.  0 when no
    branches were observed. *)

val observed_branches : t -> int
(** Number of dynamic branch outcomes recorded. *)
