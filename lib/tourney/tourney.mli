(** Baselines tournament: a grid of dynamic-network scenario families
    crossed with synchronization algorithms, every cell scored on the
    same execution.

    The engine already runs every listed baseline on the very messages
    the optimal CSA sees, so a "cell" here is not a separate run: one
    seeded simulation per family produces a column of strictly
    comparable cells — identical traffic, identical delays, identical
    faults.  Families cover the dynamics the paper's model ranges over
    (steady polling, a stratum hierarchy with loss, one-way gossip,
    continuous link churn, a partition that heals), and the ranking is
    by median estimate width with unbounded estimates counted against
    the score. *)

type family = {
  fam_name : string;
  fam_doc : string;
  static_like : bool;
      (** a clean scenario (no loss, faults or churn) where the optimal
          algorithm must rank at or above every baseline on median
          width — the tournament's acceptance gate *)
  build : nodes:int -> duration:Q.t -> seed:int -> Scenario.t;
      (** the runner overwrites the baseline list from the requested
          algorithms *)
}

val all_families : family list
(** static, ntp-poll, gossip, churn, partition-heal — in that order. *)

val family_of_name : string -> (family, string) result

val algo_names : string list
(** Every algorithm the tournament can score; ["optimal"] first. *)

val check_algos : string list -> (unit, string) result
(** Every name is one of {!algo_names}, and ["optimal"] is among them. *)

type cell = {
  algo : string;
  rank : int;  (** 1-based within the family, by median width *)
  samples : int;  (** estimate samples recorded *)
  contained : int;  (** samples whose interval held the true time *)
  sound : bool;  (** [samples > 0] and every sample contained *)
  p50 : float;  (** median width; [infinity] counts as a sample *)
  p90 : float;
  mean_width : float;  (** over finite samples (engine aggregate) *)
  convergence : float;
      (** first real time the algorithm's estimate went finite at any
          node; [infinity] when it never did *)
}

type family_result = {
  family : string;
  static_scored : bool;
  messages : int;  (** sent in the family's run (shared by all cells) *)
  lost : int;
  payload_bytes : int;  (** CSA wire bytes (Lemma 3.2 overhead) *)
  soundness_failures : int;  (** engine-level optimal-interval misses *)
  cells : cell list;  (** ranked, best first *)
}

type outcome = { duels : family_result list }

type spec = {
  nodes : int;
  duration : Q.t;
  seed : int;  (** family [i] runs with [seed + i] *)
  families : family list;
  algos : string list;  (** must include ["optimal"] *)
  trace_dir : string option;
      (** when set, each family's full event stream is written to
          [DIR/<family>.jsonl] with a summary trailer — the same format
          [clocksync run --trace] emits, accepted by
          [clocksync analyze] *)
}

val default_spec : spec
(** 6 nodes, 20 s, seed 42, every family, every algorithm, no traces. *)

val run : ?log:(string -> unit) -> spec -> outcome
(** Run the grid.  [log] receives a one-line progress note per family.
    @raise Invalid_argument on an unknown algorithm, a missing
    ["optimal"], fewer than 3 nodes or an empty family list. *)

val check_csa_sound : outcome -> (unit, string) result
(** Every family: no engine soundness failures, and the optimal cell
    sampled at least once with every interval containing true time. *)

val check_csa_leads_static : outcome -> (unit, string) result
(** In every [static_scored] family, no baseline strictly beats the
    optimal algorithm on median width. *)

val render : outcome -> string
(** The ranked table plus one overhead line per family. *)

val json_of_outcome : outcome -> Json_out.t
(** Machine-readable mirror of {!render} (CI artifacts). *)
