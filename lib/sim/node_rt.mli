(** Per-node runtime of the simulator: one drifting clock plus the full
    algorithm stack riding on it — the optimal CSA, the optional
    validation mirror, and the scenario's baseline list, all fed from
    the very same messages.

    This is the simulator's realization of a {e processor} in the paper's
    model; {!Engine} is left with scheduling, traffic generation and
    bookkeeping only.  Nothing here touches the agenda or the transport:
    a node turns (real time, message) into envelopes and estimates, and
    that is all. *)

(** What actually crosses a link.  The CSA payload travels Codec-encoded —
    the real wire format end to end; each listed baseline's wire rides
    alongside, in the scenario's baseline order.  Application-level
    message kinds are the engine's business and are deliberately
    absent. *)
type envelope = { wire : string; baseline_wires : Baseline.wire list }

type t = {
  proc : Event.proc;
  clock : Clock.t;
  csa : Csa.t;
  mirror : Mirror.t option;
  baselines : Baseline.node list;
      (** one instance per {!Scenario.t.baselines} entry, in order *)
  parents : Event.proc list;  (** next hops toward the source *)
  prof : Prof.t;  (** scenario profiler (times codec encode/decode) *)
}

val create :
  Scenario.t ->
  rng:Rng.t ->
  links:(Event.proc * Event.proc) list ->
  sink:Trace.sink ->
  Event.proc ->
  t
(** Boot processor [p]: a random initial offset (except at the source), a
    drifting clock per the scenario's clock policy, and the algorithm
    stack the scenario lists.  [sink] is threaded into the CSA (liveness
    and oracle events).  Draws from [rng]; call in increasing [p] order
    for a reproducible stream. *)

val revive :
  Scenario.t ->
  clock:Clock.t ->
  parents:Event.proc list ->
  csa:Csa.t ->
  now:Q.t ->
  Event.proc ->
  t
(** Rebuild processor [p]'s stack after a crash, around a {!Csa.restore}d
    core.  The clock is the one the node crashed with (hardware keeps
    ticking through a reboot); baselines restart from scratch at the
    clock's current reading; the validation mirror is dropped.  Draws
    nothing from any rng, so reviving keeps a run's random streams
    aligned with its crash-free twin. *)

val lt_at : t -> rt:Q.t -> Q.t
(** The node's clock reading at real time [rt]. *)

val prepare_send : t -> dst:Event.proc -> msg:int -> lt:Q.t -> envelope * int
(** Record the send on every algorithm and build the envelope;
    also returns the number of piggybacked history events (the
    communication-overhead measure of Lemma 3.2). *)

val receive : t -> src:Event.proc -> msg:int -> lt:Q.t -> envelope -> unit
(** Record the delivery on every algorithm (decodes the wire payload
    exactly once). *)

val estimates : t -> lt:Q.t -> (string * Interval.t) list
(** Per-algorithm source-time estimates at local time [lt], the optimal
    CSA first, then the baselines in the scenario's order. *)

val baseline_estimate : t -> string -> lt:Q.t -> Interval.t option
(** The named baseline's estimate at local time [lt]; [None] when the
    scenario does not run it. *)

val validate : t -> bool option
(** Cross-check the CSA estimate against the brute-force
    {!Reference.estimate} on the mirror's view: [None] when the node has
    no mirror (validation off), otherwise whether they agree exactly. *)
