(** One process, one socket, thousands of clients: the Section 4 NTP
    pattern at scale.

    A hub is the reference node (processor 0) of a star spec, serving
    clients 1..N-1 from a single {!Net_intf.NET} endpoint.  The N-1
    per-client protocol state machines are sharded into {e cohorts}:
    one {!Session} per cohort carries the member subset (via
    [Session.create ~peers]), so the members of a cohort share one CSA
    — one history, one AGDP matrix — instead of paying for N-1
    independent copies.  Sharding is invisible on the wire: every
    cohort session runs as processor 0 of the {e full} spec, so the
    hello digest matches what an ordinary [clocksync peer] computes,
    and per-client interval trajectories are unchanged (the source's
    timeline is rigid — paper Section 2 forces its drift to zero — so
    detour paths through cohort-mates can never beat a client's direct
    exchanges; the hub equivalence QCheck property pins this down).

    Message ids: each cohort session allocates the default
    [0 + k * N] stride.  Cohorts therefore emit {e identical} id
    sequences, but to disjoint clients, and loss-verdict gossip only
    ever travels inside the cohort that owns the id — a client can
    never hear about another cohort's id.  Client-allocated ids
    ([g + k * N], g >= 1) never collide with either.

    The drive loop is readiness-driven and batched: one blocking
    receive per tick, then a zero-timeout burst drain of the kernel
    queue (decode in place from the single receive buffer), then {e
    one} flush of the cohorts that handled a frame — frames to the same
    client leave together ("coalesced") instead of one flush per
    handled frame.

    {b Touched set.}  A poll costs what its frames and due timers cost,
    not the cohort count.  The hub caches each cohort's
    [Session.next_deadline] in a {!Deadline_index} and keeps a set of
    {e touched} cohorts: a cohort is touched when its cached deadline is
    due, when it handles a frame, when {!stop} runs, and when {!session}
    hands it out.  [poll] ticks, flushes and re-caches only touched
    cohorts, always in ascending cohort index, then empties the set.
    Ticking a session that is not due is a no-op, flushing an empty
    queue sends nothing, and the deadline depends only on session
    state, so every send reaches the net in the order a pass over all
    cohorts would produce.  Every cohort starts touched: the first poll
    (or {!next_deadline}) builds the index. *)

type stats = {
  clients : int;
  established : int;  (** members currently up, across cohorts *)
  frames : int;  (** valid client frames handled (cumulative) *)
  batched : int;
      (** frames that rode a burst: handled after the first datagram of
          their readiness wakeup, without another select *)
  coalesced : int;
      (** frames that shared their flush with an earlier same-tick frame
          to the same client *)
}
(** Cumulative hub health counters (functor-independent so a report can
    carry them whatever the underlying NET). *)

module Make (N : Net_intf.NET) : sig
  type t

  val create :
    ?sink:Trace.sink ->
    ?prof:Prof.t ->
    ?burst:int ->
    net:N.t ->
    spec:System_spec.t ->
    cohort_size:int ->
    mk_session:(idx:int -> members:Event.proc list -> (Session.t, string) result) ->
    unit ->
    (t, string) result
  (** Shard clients 1..N-1 into cohorts of [cohort_size] consecutive
      ids and build one session per cohort through [mk_session] (which
      must return a processor-0 session of the full spec restricted to
      [members] — the CLI's checkpoint-or-fresh wiring lives there, so
      the hub itself stays storage-free).  [burst] caps datagrams
      handled per readiness wakeup.  Errors propagate from
      [mk_session] (e.g. an unusable checkpoint). *)

  val net : t -> N.t
  val cohorts : t -> int
  val clients : t -> int
  val session : t -> int -> Session.t
  (** The cohort's session, for checkpoint wiring and tests.  Handing it
      out touches the cohort, so whatever the caller does to the
      session before the next {!poll} is picked up by that poll (queued
      frames flushed, timers re-read).  A reference kept past that poll
      is not watched: go through [session] again before mutating. *)

  val members : t -> int -> Event.proc list

  val poll : t -> max_wait:Q.t -> unit
  (** One drive tick: tick and flush the touched cohorts (those with a
      due deadline among them), wait up to [max_wait] (capped by the
      earliest cohort deadline) for a datagram, burst-drain the queue,
      then flush the cohorts that handled a frame.  Touched cohorts are
      visited in ascending index order and their deadlines re-cached. *)

  val next_deadline : t -> Q.t option
  (** Earliest pending timer across all cohorts (local time), read off
      the deadline index after re-caching any touched cohorts. *)

  val stats : t -> stats

  val emit_stats : t -> now:Q.t -> unit
  (** Emit one [hub_cohort] trace event per cohort (cumulative
      counters); the CLI calls this on its sample cadence, which is
      what feeds [Expo]'s hub gauges and [clocksync analyze]. *)

  val stop : t -> now:Q.t -> unit
  (** Bye to every reachable client, then a final flush.  Touches every
      cohort. *)

  val settled_cohorts : t -> int
  (** Cohorts whose [Session.all_peers_done] holds, kept as a count that
      is updated whenever a touched cohort is re-cached. *)

  val all_clients_done : t -> bool
  (** Every client of every cohort was up at some point and has since
      said bye — the hub's natural exit condition.  O(touched), read off
      {!settled_cohorts}. *)
end
