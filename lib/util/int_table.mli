(** Mutable maps from ints to ints.

    An open-addressing hash table with linear probing over one flat int
    array: a binding's key and value sit side by side, so a lookup that
    hits costs one cache line, and adding a binding allocates nothing
    (the array doubles when half full).  It replaces the polymorphic
    [Hashtbl] on the profiler's per-access paths (last-access tables,
    branch histories and outcome counts, histogram spill keys), where the
    generic structural hash, the boxed bucket per binding and the [Some]
    per lookup dominated.  Bindings cannot be removed.  [iter] and [fold]
    visit bindings in an unspecified order that differs from [Hashtbl]'s,
    so callers whose result depends on the order must sort. *)

type t

val create : int -> t
(** [create n] is an empty table sized for about [n] bindings. *)

val length : t -> int
(** Number of bindings. *)

val find : t -> int -> default:int -> int
(** The value bound to a key, or [default] when it is unbound. *)

val swap : t -> int -> int -> absent:int -> int
(** [swap t k v ~absent] binds [k] to [v] and returns the value [k] was
    bound to before, or [absent] if it was unbound: a lookup and an update
    in one probe. *)

val replace : t -> int -> int -> unit
(** [replace t k v] binds [k] to [v]. *)

val add : t -> int -> int -> unit
(** [add t k d] adds [d] to the value bound to [k] (0 when unbound). *)

val iter : (int -> int -> unit) -> t -> unit
val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
val copy : t -> t
