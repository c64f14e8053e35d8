(** One interface over the practical baselines, and their registry.

    Every baseline the simulator runs beside the optimal CSA has the same
    shape: per-node state booted from the spec, a hook on every send that
    returns what the algorithm piggybacks on the message, a hook on every
    delivery that consumes it, and an estimate query.  Both hooks also
    see the message's CSA payload, so the full-information drift-free
    strawman fits the same mould as the round-trip and flooding
    algorithms.

    The runtime holds one {!node} per listed {!algo} and iterates; it
    names no baseline.  Adding one is a single module: implement {!S}
    (extending {!wire} with a constructor of its own) and list it in
    {!all}. *)

type wire = ..
(** What one baseline piggybacks on a message.  Each algorithm adds its
    own constructor, and one that reads its wire raises
    [Invalid_argument] on another algorithm's. *)

module type S = sig
  type t

  val name : string
  val create : System_spec.t -> me:Event.proc -> lt0:Q.t -> t

  val on_send :
    t -> dst:Event.proc -> msg:int -> lt:Q.t -> payload:Payload.t -> wire

  val on_recv :
    t ->
    src:Event.proc ->
    msg:int ->
    lt:Q.t ->
    payload:Payload.t ->
    wire ->
    unit

  val estimate_at : t -> lt:Q.t -> Interval.t
end

type algo = (module S)
(** A baseline with its parameters bound. *)

val name : algo -> string

(** {1 Registry} *)

val driftfree : window:Q.t -> algo
(** {!Driftfree} over a [window] of local time. *)

val ntp : algo
(** NTP-flavoured (Mills [15, 16], interval form): every round trip
    yields a sound interval via {!Rtt_estimator}, and samples from all
    peers and drift-widened memory are combined by intersection,
    mimicking NTP's clock-filter/combine stages.  Stratum propagation is
    implicit: a peer's wire carries its own current interval, so accuracy
    degrades hop by hop from the source, like NTP's root distance. *)

val cristian : rtt_threshold:Q.t -> algo
(** Cristian's probabilistic synchronization [5]: keeps only its best
    round-trip sample, accepting a sample only when the round trip took
    at most [rtt_threshold].  Coupled with the burst traffic pattern
    (retry until a quick round trip succeeds) this is the behaviour
    Section 4 analyzes: with high probability a burst ends quickly, and
    the threshold governs estimate quality. *)

val ftsp : algo
val marzullo : algo

module Ftsp_algo : S with type t = Ftsp.t
(** {!ftsp} with its state type visible, for callers that inspect the
    election ({!Ftsp.root}). *)

val all : algo list
(** Every baseline with its default parameters (drift-free window 30 s,
    Cristian threshold 50 ms), in the canonical order driftfree, ntp,
    cristian, ftsp, marzullo. *)

val select : string list -> algo list
(** The members of {!all} whose names are listed, in canonical order;
    unknown names are ignored. *)

(** {1 Per-node instances} *)

type node = Node : (module S with type t = 'a) * 'a -> node
(** One baseline's state at one processor, packed with its algorithm. *)

val create : algo -> System_spec.t -> me:Event.proc -> lt0:Q.t -> node
