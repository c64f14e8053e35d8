(** A lazy index of the earliest deadline among K slots.

    Both deterministic drive loops need the same thing: the earliest
    pending deadline among many independent state machines, and the set
    of machines that are due, without scanning all of them.  The
    {!Loopback} scheduler keeps one over its drivers, the hub keeps one
    over its cohort sessions.

    Each slot caches one deadline ([None] when idle).  A min-heap
    mirrors the cache; entries are never updated in place.  An entry is
    live iff it still equals its slot's cached deadline, and stale
    entries are dropped when they reach the top.  Setting a slot is one
    heap push and finding the earliest live deadline costs the stale
    entries it discards, so neither ever scans all K slots. *)

(** The pairing heap under the index, over [(at, seq)] with the slot or
    destination in [key].  Ties on [at] go to the lower [seq].  The
    {!Loopback} packet schedule uses it directly, with its own liveness
    rule. *)
module Heap : sig
  type entry = { at : Q.t; seq : int; key : int }
  type t

  val empty : t
  val push : t -> entry -> t
  val top : t -> entry option

  val pop : t -> t
  (** Drop the top entry ([empty] stays [empty]). *)
end

type t

val create : int -> t
(** [create k]: slots [0..k-1], all idle. *)

val set : t -> int -> Q.t option -> unit
(** Re-cache a slot's deadline.  Pushes a heap entry only when the
    value changed. *)

val earliest : t -> Q.t option
(** The earliest cached deadline over all slots. *)

val pop_due : t -> now:Q.t -> (int -> unit) -> unit
(** Call [f i] for every slot whose cached deadline is at or before
    [now], and mark those slots idle: the caller is about to act on them
    and must {!set} each one again afterwards.  The order among due
    slots is unspecified. *)
