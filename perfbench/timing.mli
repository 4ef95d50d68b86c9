(** Clock and timing statistics shared by every workload. *)

val now : unit -> float
(** Monotonic clock, in seconds. *)

val span : (unit -> 'a) -> 'a * float
(** [span f] runs [f] and returns its result with the elapsed seconds. *)

type summary = {
  n : int;  (** samples *)
  median : float;
  tail_pct : float option;
      (** the highest of p50, p90, p99, p99.9 and p99.99 with at least ten
          samples beyond it; [None] when fewer than 20 samples exist *)
  tail : float option;  (** the value at [tail_pct] *)
}

val summarize : float array -> summary
(** Median (mean of the two middle values for an even count) and the
    tail percentile by nearest rank.  The input is not modified.
    Raises [Invalid_argument] on an empty array. *)

val median : float array -> float

val best_round : float array array -> float
(** [best_round rounds]: [rounds.(k).(j)] is the time of part [j] in round
    [k], every round timing the same parts in the same order.  The sum over
    parts of each part's fastest time: how long one round takes while
    nothing else slows the machine.  On a shared host whose speed switches
    between states for seconds at a time it is much steadier than the
    median round, and it still moves with the work each part does.
    Raises [Invalid_argument] if there is no round or the rounds differ in
    length. *)

val percentile : float array -> float -> float
(** [percentile xs p] is the [p]-th percentile (0 < p <= 100) by nearest
    rank: the ceil(p n / 100)-th smallest sample. *)
