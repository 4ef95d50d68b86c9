(** Append-only, crash-tolerant sweep checkpoint log.

    A checkpointed sweep appends one record per completed block of
    design points, written a group of blocks at a time, so a killed
    process loses at most the in-flight group (completed writes live in
    the page cache and survive process death).  The log is fsync'd at
    most once per second, bounding what a power failure can lose to the
    last second of progress.  Every line carries its own CRC-32: a torn
    tail write invalidates only the last record, which {!open_} drops
    (the resumed sweep re-evaluates that block).  Result floats are
    stored as raw IEEE-754 bit patterns, making a kill-and-resume sweep
    bit-identical to an uninterrupted one.

    The log knows nothing about what a record means.  Its header holds
    an identity string chosen by the sweep (what is swept, over which
    inputs), and {!open_} resumes a log only when that string matches
    exactly; each record holds the point range it covers and a list of
    float-vector-or-fault items that the sweep encodes and decodes. *)

type t
(** An open checkpoint file, ready for appending. *)

type record = {
  r_start : int;  (** first point index the record covers *)
  r_count : int;  (** number of points covered, [>= 1] *)
  r_items : (float array, Fault.t) result list;
      (** the block's payload: a per-point sweep stores one item per
          point (failed points too, so a resume does not re-run known-bad
          configs), a streaming sweep one summary vector per block *)
}

val open_ : string -> header:string -> (t * record list, Fault.t) result
(** [open_ path ~header] creates [path] with [header] as its identity,
    or — if the file exists and is not empty — resumes it: the stored
    header must equal [header] exactly, otherwise resuming would
    silently mix records from a different sweep.  Returns the records
    the log already holds, in file order, decoding up to the first line
    whose CRC or syntax does not check out; that torn tail is truncated
    away so new records never get glued onto a partial line.  Logs
    written by an older format version are refused.  Every [Error] is a
    [Fault.Bad_input]. *)

val append : t -> record list -> unit
(** Append records in one write, fsync'ing at most once per second
    (group commit).  Raises [Fault.Error] on a failed write. *)

val close : t -> unit

val sync : t -> unit
(** Force an fsync now, regardless of the group-commit cadence. *)

val sync_all : unit -> unit
(** Fsync every checkpoint currently open in this process.  Safe to call
    from a signal handler racing normal operation: per-handle failures
    (a log closed concurrently) are swallowed — the per-line CRCs make
    any torn tail harmless on the next open.  This is what lets a
    SIGTERM'd [mipp sweep]/[mipp validate] guarantee the log is durable
    before exiting. *)
