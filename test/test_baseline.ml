(* Tests for the practical baseline algorithms: the NTP-flavoured and
   Cristian round-trip estimators and the drift-free + fudge strawman.
   Each must be SOUND (contain the hidden true time) but is expected to be
   SUBOPTIMAL (never tighter than the paper's algorithm on the same
   execution) — that gap is the paper's motivation. *)

let q = Q.of_int

let spec2 =
  System_spec.uniform ~n:2 ~source:0 ~drift:(Drift.of_ppm 100)
    ~transit:(Transit.of_q (q 1) (q 5))
    ~links:[ (0, 1) ]

(* Drive one client round trip by hand:
   client(1) sends at lt 10 (real 15), server(0 = source, clock = real
   time) receives at 17, replies at 18, client receives at real 20
   (its clock shows 15).  Hidden truth: client clock = real − 5. *)
let run_round_trip client =
  let server = Rtt_estimator.create Rtt_estimator.ntp_policy spec2 ~me:0 ~lt0:(q 0) in
  let w_req = Rtt_estimator.on_send client ~dst:0 ~msg:1 ~lt:(q 10) in
  Rtt_estimator.on_recv server ~src:1 ~msg:1 ~lt:(q 17) w_req;
  let w_resp = Rtt_estimator.on_send server ~dst:1 ~msg:2 ~lt:(q 18) in
  Rtt_estimator.on_recv client ~src:0 ~msg:2 ~lt:(q 15) w_resp

let test_ntp_round_trip_sound () =
  let client =
    Rtt_estimator.create Rtt_estimator.ntp_policy spec2 ~me:1 ~lt0:(q 0)
  in
  run_round_trip client;
  let est = Rtt_estimator.estimate_at client ~lt:(q 15) in
  (* truth: real time is 20 when the client clock shows 15 *)
  Alcotest.(check bool) "contains truth" true (Interval.mem (q 20) est);
  (match Interval.width est with
  | Ext.Fin w ->
    (* round trip of 5 local units, bounded by transit [1,5] both ways *)
    Alcotest.(check bool) "reasonably tight" true Q.(w <= q 4)
  | Ext.Inf -> Alcotest.fail "expected finite estimate");
  Alcotest.(check int) "one sample accepted" 1
    (Rtt_estimator.samples_accepted client);
  (* drift widens with local elapse: 1000 units later the truth is 1020 *)
  let later = Rtt_estimator.estimate_at client ~lt:(q 1015) in
  Alcotest.(check bool) "still contains truth much later" true
    (Interval.mem (q 1020) later);
  match Interval.width est, Interval.width later with
  | Ext.Fin w0, Ext.Fin w1 -> Alcotest.(check bool) "wider later" true Q.(w1 > w0)
  | _ -> Alcotest.fail "expected finite estimates"

let ntp_at me =
  Rtt_estimator.create Rtt_estimator.ntp_policy spec2 ~me ~lt0:(q 0)

let test_ntp_no_sample_no_estimate () =
  let client = ntp_at 1 in
  Alcotest.(check bool) "full interval before any exchange" true
    (Interval.equal (Rtt_estimator.estimate_at client ~lt:(q 5)) Interval.full);
  (* a one-way message alone gives the receiver no round trip: the NTP
     estimate stays unbounded.  (The paper's optimal algorithm extracts a
     lower bound even from one-way messages — a structural difference.) *)
  let server = ntp_at 0 in
  Rtt_estimator.on_recv client ~src:0 ~msg:1 ~lt:(q 8)
    (Rtt_estimator.on_send server ~dst:1 ~msg:1 ~lt:(q 10));
  Alcotest.(check bool) "one-way message: still full" true
    (Interval.equal (Rtt_estimator.estimate_at client ~lt:(q 8)) Interval.full)

let test_source_estimates_itself () =
  let server = ntp_at 0 in
  Alcotest.(check bool) "source is exact" true
    (Interval.equal
       (Rtt_estimator.estimate_at server ~lt:(q 7))
       (Interval.point (q 7)))

let test_cristian_threshold () =
  (* threshold below the observed round trip (5): sample rejected *)
  let strict =
    Rtt_estimator.create (Rtt_estimator.cristian_policy ~rtt_threshold:(q 4))
      spec2 ~me:1 ~lt0:(q 0)
  in
  run_round_trip strict;
  Alcotest.(check int) "rejected" 1 (Rtt_estimator.samples_rejected strict);
  Alcotest.(check int) "not accepted" 0 (Rtt_estimator.samples_accepted strict);
  Alcotest.(check bool) "estimate still unbounded" true
    (Interval.equal (Rtt_estimator.estimate_at strict ~lt:(q 15)) Interval.full);
  (* generous threshold: accepted and sound *)
  let lax =
    Rtt_estimator.create (Rtt_estimator.cristian_policy ~rtt_threshold:(q 6))
      spec2 ~me:1 ~lt0:(q 0)
  in
  run_round_trip lax;
  Alcotest.(check int) "accepted" 1 (Rtt_estimator.samples_accepted lax);
  Alcotest.(check bool) "contains truth" true
    (Interval.mem (q 20) (Rtt_estimator.estimate_at lax ~lt:(q 15)))

(* ---------------------------------------------------------------- marzullo *)

let test_marzullo_combine_unit () =
  let iv a b = Interval.make (Interval.B (q a)) (Interval.B (q b)) in
  (* the textbook example: two of three sources agree on [11,12] *)
  let best, count = Marzullo.combine [ iv 8 12; iv 11 13; iv 14 15 ] in
  Alcotest.(check int) "two sources agree" 2 count;
  Alcotest.(check bool) "smallest agreeing region" true
    (Interval.equal best (iv 11 12));
  (* unanimous inputs degenerate to plain intersection *)
  let best, count = Marzullo.combine [ iv 0 10; iv 4 20; iv 6 8 ] in
  Alcotest.(check int) "unanimous" 3 count;
  Alcotest.(check bool) "intersection" true (Interval.equal best (iv 6 8));
  (* touching endpoints overlap (starts sort before ends) *)
  let _, count = Marzullo.combine [ iv 0 5; iv 5 9 ] in
  Alcotest.(check int) "touching counts as overlap" 2 count;
  let _, count = Marzullo.combine [] in
  Alcotest.(check int) "empty" 0 count

(* Brute-force oracle on random finite intervals: the sweep's count must
   equal the max point-overlap (attained at an input endpoint for closed
   intervals), the returned region must lie in exactly that many inputs,
   and no pair of endpoints spans a smaller region with the same
   support. *)
let test_marzullo_combine_oracle () =
  let rng = Rng.create 4242 in
  for _ = 1 to 200 do
    let k = 1 + Rng.int rng 8 in
    let ivs =
      List.init k (fun _ ->
          let a = Rng.int rng 40 and len = Rng.int rng 20 in
          (q a, q (a + len)))
    in
    let endpoints = List.concat_map (fun (a, b) -> [ a; b ]) ivs in
    let support x =
      List.length
        (List.filter (fun (a, b) -> Q.(a <= x) && Q.(x <= b)) ivs)
    in
    let oracle = List.fold_left (fun m x -> max m (support x)) 0 endpoints in
    let best, count =
      Marzullo.combine
        (List.map (fun (a, b) -> Interval.make (Interval.B a) (Interval.B b)) ivs)
    in
    Alcotest.(check int) "count = max point overlap" oracle count;
    let lo, hi =
      match Interval.lo best, Interval.hi best with
      | Interval.B lo, Interval.B hi -> (lo, hi)
      | _ -> Alcotest.fail "finite inputs, finite best region"
    in
    let span_support a b =
      List.length
        (List.filter (fun (l, h) -> Q.(l <= a) && Q.(b <= h)) ivs)
    in
    Alcotest.(check int) "whole region in count inputs" count
      (span_support lo hi);
    (* A maximal overlap region is an intersection of its supporting
       intervals, so its lo is an input lo, its hi an input hi, and
       nudging either bound outward by any epsilon loses support (the
       inputs are integers, so 1/2 is outward enough).  The sweep must
       return the smallest such region. *)
    let eps = Q.of_ints 1 2 in
    let maximal a b =
      span_support a b = count
      && span_support (Q.sub a eps) b < count
      && span_support a (Q.add b eps) < count
    in
    Alcotest.(check bool) "returned region is maximal" true (maximal lo hi);
    let smallest =
      List.fold_left
        (fun acc (a, _) ->
          List.fold_left
            (fun acc (_, b) ->
              if Q.(a <= b) && maximal a b then
                match acc with
                | Some w when Q.(w <= Q.sub b a) -> acc
                | _ -> Some (Q.sub b a)
              else acc)
            acc ivs)
        None ivs
    in
    match smallest with
    | None -> Alcotest.fail "oracle found no maximal region"
    | Some w ->
      Alcotest.(check bool) "smallest maximal region" true
        (Q.compare (Q.sub hi lo) w = 0)
  done

let test_marzullo_sample_sound () =
  (* a flood from the source at lt 10 over transit [1,5]: any execution
     puts the receive between real 11 and 15, and the sample is exactly
     that window *)
  let server = Marzullo.create spec2 ~me:0 ~lt0:(q 0) in
  let client = Marzullo.create spec2 ~me:1 ~lt0:(q 0) in
  Alcotest.(check bool) "unbounded before any sample" true
    (Interval.equal (Marzullo.estimate_at client ~lt:(q 3)) Interval.full);
  let w = Marzullo.on_send server ~dst:1 ~msg:1 ~lt:(q 10) in
  Marzullo.on_recv client ~src:0 ~msg:1 ~lt:(q 8) w;
  let est = Marzullo.estimate_at client ~lt:(q 8) in
  Alcotest.(check bool) "contains every feasible truth" true
    (Interval.mem (q 11) est && Interval.mem (q 15) est);
  Alcotest.(check int) "one source" 1 (Marzullo.sources client);
  Alcotest.(check int) "one sample" 1 (Marzullo.samples_accepted client);
  (* the anchor drift-widens with local elapse but keeps the truth *)
  let later = Marzullo.estimate_at client ~lt:(q 1008) in
  Alcotest.(check bool) "sound much later" true
    (Interval.mem (q 1011) later && Interval.mem (q 1015) later)

(* ------------------------------------------------------------------ ftsp *)

let test_ftsp_flood_sound () =
  let server = Ftsp.create spec2 ~me:0 ~lt0:(q 0) in
  let client = Ftsp.create spec2 ~me:1 ~lt0:(q 0) in
  Alcotest.(check int) "source is its own root" 0 (Ftsp.root server);
  let w = Ftsp.on_send server ~dst:1 ~msg:1 ~lt:(q 10) in
  Ftsp.on_recv client ~src:0 ~msg:1 ~lt:(q 8) w;
  Alcotest.(check int) "client adopted the lower root" 0 (Ftsp.root client);
  Alcotest.(check int) "flood accepted" 1 (Ftsp.samples_accepted client);
  let est = Ftsp.estimate_at client ~lt:(q 8) in
  (* one-way flood over transit [1,5]: truth is in [11,15] *)
  Alcotest.(check bool) "sound one-way sample" true
    (Interval.mem (q 11) est && Interval.mem (q 15) est);
  (* a replay of the same sequence number is ignored *)
  Ftsp.on_recv client ~src:0 ~msg:1 ~lt:(q 9) w;
  Alcotest.(check int) "stale seq rejected" 1 (Ftsp.samples_rejected client);
  Alcotest.(check int) "not resampled" 1 (Ftsp.samples_accepted client)

let test_ftsp_self_nomination () =
  let server = Ftsp.create spec2 ~me:0 ~lt0:(q 0) in
  let client = Ftsp.create spec2 ~me:1 ~lt0:(q 0) in
  let w = Ftsp.on_send server ~dst:1 ~msg:1 ~lt:(q 10) in
  Ftsp.on_recv client ~src:0 ~msg:1 ~lt:(q 8) w;
  Alcotest.(check int) "root 0 adopted" 0 (Ftsp.root client);
  (* root_timeout sends with no news from the root chain: the client
     gives up on root 0 and nominates itself, exactly like FTSP *)
  for i = 1 to Ftsp.root_timeout + 1 do
    ignore (Ftsp.on_send client ~dst:0 ~msg:(10 + i) ~lt:(q (20 + i)))
  done;
  Alcotest.(check int) "self-nominated after timeout" 1 (Ftsp.root client);
  (* hearing the lower root again re-adopts it instantly *)
  let w2 = Ftsp.on_send server ~dst:1 ~msg:99 ~lt:(q 40) in
  Ftsp.on_recv client ~src:0 ~msg:99 ~lt:(q 35) w2;
  Alcotest.(check int) "lower root re-adopted" 0 (Ftsp.root client)

(* Seeded churn keeps cutting ring links, isolated nodes may time out
   and self-nominate; once the last heal has flooded through, every
   node's election must have re-converged to the source (lowest id),
   and the flood samples must have stayed sound throughout. *)
let test_ftsp_election_converges_under_churn () =
  let spec =
    System_spec.uniform ~n:5 ~source:0 ~drift:(Drift.of_ppm 200)
      ~transit:(Transit.of_q (Scenario.ms 1) (Scenario.ms 10))
      ~links:(Topology.ring 5)
  in
  (* the runtime's FTSP instances, by node: the registry module with
     its state type visible, recording every instance it boots *)
  let ftsp_of = Hashtbl.create 8 in
  let module Ftsp_seen = struct
    include Baseline.Ftsp_algo

    let create spec ~me ~lt0 =
      let f = create spec ~me ~lt0 in
      Hashtbl.replace ftsp_of me f;
      f
  end in
  let r, nodes =
    Engine.run_nodes
      {
        (Scenario.default ~spec
           ~traffic:(Scenario.Ntp_poll { period = Scenario.ms 500 }))
        with
        Scenario.duration = Scenario.sec 15;
        seed = 11;
        baselines = [ (module Ftsp_seen) ];
        churn = Some { Scenario.cuts = 4; min_down = None; max_down = None };
      }
  in
  let ftsp = List.assoc "ftsp" r.Engine.per_algo in
  Alcotest.(check bool) "ftsp sampled" true (ftsp.Engine.samples > 0);
  Alcotest.(check int) "ftsp sound under churn" ftsp.Engine.samples
    ftsp.Engine.contained;
  Array.iter
    (fun node ->
      let p = node.Node_rt.proc in
      match Hashtbl.find_opt ftsp_of p with
      | None -> Alcotest.fail "ftsp stack missing"
      | Some f ->
        Alcotest.(check int)
          (Printf.sprintf "node %d elected the source" p)
          0 (Ftsp.root f))
    nodes

(* ---------------------------------------------------------------------- *)

let compare_scenario ~traffic ~seed =
  let spec =
    System_spec.uniform ~n:5 ~source:0 ~drift:(Drift.of_ppm 200)
      ~transit:(Transit.of_q (Scenario.ms 1) (Scenario.ms 10))
      ~links:(Topology.binary_tree 5)
  in
  {
    (Scenario.default ~spec ~traffic) with
    Scenario.duration = Scenario.sec 12;
    seed;
    baselines =
      [
        Baseline.driftfree ~window:(Scenario.sec 5);
        Baseline.ntp;
        Baseline.cristian ~rtt_threshold:(Scenario.ms 25);
        Baseline.ftsp;
        Baseline.marzullo;
      ];
  }

(* Simulation-level comparison: all baselines sound on random executions,
   and never tighter than the optimal algorithm at the end of the run.
   The last input crashes and restarts nodes: a revived node restarts
   every baseline from scratch around its restored CSA, and must keep
   sampling every algorithm after it comes back. *)
let test_baselines_sound_and_suboptimal () =
  let poll = Scenario.Ntp_poll { period = Scenario.sec 1 } in
  List.iteri
    (fun i (traffic, crashes) ->
      let scenario = compare_scenario ~traffic ~seed:(100 + i) in
      let faults =
        if crashes = 0 then []
        else
          Fault.Chaos.schedule ~seed:7 ~nodes:5
            ~duration:scenario.Scenario.duration ~cycles:crashes ()
      in
      let recovered = ref [] and last_sample = Hashtbl.create 16 in
      let sink =
        Trace.callback (function
          | Trace.Recover { t; node } -> recovered := (node, t) :: !recovered
          | Trace.Estimate { t; node; algo; _ } ->
            Hashtbl.replace last_sample (node, algo) t
          | _ -> ())
      in
      let r = Engine.run { scenario with Scenario.faults; trace = sink } in
      Alcotest.(check int)
        (Printf.sprintf "every algorithm scored (run %d)" i)
        6
        (List.length r.Engine.per_algo);
      Alcotest.(check int)
        (Printf.sprintf "recoveries (run %d)" i)
        crashes (List.length !recovered);
      List.iter
        (fun (name, a) ->
          Alcotest.(check int)
            (Printf.sprintf "%s sound (run %d)" name i)
            a.Engine.samples a.Engine.contained)
        r.Engine.per_algo;
      let opt = List.assoc "optimal" r.Engine.per_algo in
      List.iter
        (fun (name, a) ->
          if name <> "optimal" then
            Array.iteri
              (fun node w ->
                if opt.Engine.final_widths.(node) > w +. 1e-9 then
                  Alcotest.failf "optimal wider than %s at node %d (run %d)"
                    name node i)
              a.Engine.final_widths)
        r.Engine.per_algo;
      List.iter
        (fun (node, t) ->
          List.iter
            (fun (algo, _) ->
              match Hashtbl.find_opt last_sample (node, algo) with
              | Some last when last > t -> ()
              | _ ->
                Alcotest.failf
                  "node %d stopped sampling %s after recovering at %g (run %d)"
                  node algo t i)
            r.Engine.per_algo)
        !recovered)
    [
      (poll, 0);
      (Scenario.Gossip { mean_gap = Scenario.ms 500 }, 0);
      ( Scenario.Burst
          { check_period = Scenario.sec 1; width_target = Scenario.ms 8 },
        0 );
      (poll, 2);
    ]

let test_driftfree_soundness_in_sim () =
  let spec =
    System_spec.uniform ~n:3 ~source:0 ~drift:(Drift.of_ppm 500)
      ~transit:(Transit.of_q (Scenario.ms 1) (Scenario.ms 10))
      ~links:(Topology.line 3)
  in
  let r =
    Engine.run
      {
        (Scenario.default ~spec
           ~traffic:(Scenario.Ntp_poll { period = Scenario.sec 1 }))
        with
        Scenario.duration = Scenario.sec 30;
        baselines = [ Baseline.driftfree ~window:(Scenario.sec 10) ];
      }
  in
  let df = List.assoc "driftfree" r.Engine.per_algo in
  let opt = List.assoc "optimal" r.Engine.per_algo in
  Alcotest.(check int) "driftfree sound" df.Engine.samples df.Engine.contained;
  Alcotest.(check bool) "optimal at least as tight on average" true
    (opt.Engine.mean_width <= df.Engine.mean_width +. 1e-12)

let test_driftfree_unit () =
  (* direct unit-level check against a hand-driven exchange *)
  let df = Driftfree.create ~window:(q 100) spec2 ~me:1 ~lt0:(q 0) in
  Alcotest.(check bool) "initially unbounded" true
    (Interval.equal (Driftfree.estimate_at df ~lt:(q 1)) Interval.full);
  (* the server's payload: init + send *)
  let s_init = { Event.id = { proc = 0; seq = 0 }; lt = q 0; kind = Event.Init } in
  let s_send =
    { Event.id = { proc = 0; seq = 1 }; lt = q 10;
      kind = Event.Send { msg = 1; dst = 1 } }
  in
  let payload = { Payload.send_event = s_send; events = [ s_init; s_send ] } in
  Driftfree.on_recv df ~msg:1 ~lt:(q 8) ~payload;
  let est = Driftfree.estimate_at df ~lt:(q 8) in
  (* any truth consistent with this view has real ∈ [11, 15] at the recv *)
  Alcotest.(check bool) "contains feasible truths" true
    (Interval.mem (q 11) est && Interval.mem (q 15) est);
  Alcotest.(check bool) "retained small" true (Driftfree.retained_events df <= 4)

let () =
  Alcotest.run "baseline"
    [
      ( "rtt",
        [
          Alcotest.test_case "ntp round trip sound" `Quick
            test_ntp_round_trip_sound;
          Alcotest.test_case "no sample, no estimate" `Quick
            test_ntp_no_sample_no_estimate;
          Alcotest.test_case "source exact" `Quick test_source_estimates_itself;
          Alcotest.test_case "cristian threshold filter" `Quick
            test_cristian_threshold;
        ] );
      ( "marzullo",
        [
          Alcotest.test_case "combiner on known inputs" `Quick
            test_marzullo_combine_unit;
          Alcotest.test_case "combiner vs brute-force oracle" `Quick
            test_marzullo_combine_oracle;
          Alcotest.test_case "one-way sample sound" `Quick
            test_marzullo_sample_sound;
        ] );
      ( "ftsp",
        [
          Alcotest.test_case "flood sample sound, stale seq rejected" `Quick
            test_ftsp_flood_sound;
          Alcotest.test_case "self-nomination and re-adoption" `Quick
            test_ftsp_self_nomination;
          Alcotest.test_case "election converges under churn" `Slow
            test_ftsp_election_converges_under_churn;
        ] );
      ( "driftfree",
        [
          Alcotest.test_case "hand-driven exchange" `Quick test_driftfree_unit;
          Alcotest.test_case "soundness and gap in simulation" `Quick
            test_driftfree_soundness_in_sim;
        ] );
      ( "comparison",
        [
          Alcotest.test_case "sound and never tighter than optimal" `Slow
            test_baselines_sound_and_suboptimal;
        ] );
    ]
