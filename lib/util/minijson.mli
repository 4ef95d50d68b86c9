(** A minimal JSON reader and writer.

    Every machine-readable JSON report the repo writes ([BENCH_*.json],
    the accuracy report, the calibration training matrix) is built as a
    {!t} and printed by {!to_string}; {!parse} reads the same documents
    back, so typed values round-trip through JSON without an external
    dependency.  Numbers are [float]s; object member order is kept. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : context:string -> string -> (t, Fault.t) result
(** Parse one JSON document (trailing whitespace allowed, anything else
    after the value is an error).  Failures are [Fault.Bad_input] with
    the 1-based line of the offending byte. *)

(** {1 Accessors}

    All partial accessors return [option]; use {!member_exn} and friends
    only inside a [Fault.protect]-style wrapper. *)

val member : string -> t -> t option
(** First member with that key of an [Obj]; [None] otherwise. *)

val to_list : t -> t list option
val to_float : t -> float option
(** [Num] directly, or a [Str] holding a float literal — the repo's
    reports write bit-exact floats as ["0x1.5p3"]-style hex strings,
    which JSON numbers cannot carry. *)

val to_str : t -> string option
val to_int : t -> int option

val int : int -> t
(** [Num (float_of_int n)]. *)

(** {1 Writer} *)

val to_string : t -> string
(** The document, without a trailing newline.  Strings are escaped per
    RFC 8259 (['"'], ['\\'] and control bytes; bytes >= 0x80 are copied,
    so UTF-8 passes through).  A [Num] prints as the shortest of
    [%.15g]/[%.16g]/[%.17g] that reads back to the same float — [243]
    for integral values — and a non-finite one as [null].  Members keep
    their order; objects and arrays holding an object or an array put
    one item per line at two-space indentation, other arrays stay on
    one line; members print as ["key": value].
    [parse (to_string v)] is [Ok v] for every [v] with finite numbers. *)

val save : string -> t -> (unit, Fault.t) result
(** Write [to_string v] and a newline to the file. *)
