(* NTP-style hierarchy (Section 4 of the paper).

   A stratum hierarchy of time servers polls upward periodically — the
   communication pattern the paper analyzes for NTP (K1 <= 16|V|, K2 <= 2).
   The optimal algorithm, the NTP-flavoured interval estimator and the
   drift-free + fudge strawman all interpret the SAME traffic; the run
   prints final accuracy per stratum and the resource usage that
   Corollary 4.1.1 bounds.

   Run with:  dune exec examples/ntp_hierarchy.exe *)

let () =
  Format.printf "== NTP hierarchy: optimal vs practical estimators ==@.@.";
  let levels = 3 and width = 3 and fanout = 2 in
  let n, links = Topology.ntp_hierarchy ~levels ~width ~fanout in
  Format.printf
    "topology: source + %d levels x %d servers (fanout %d), %d nodes, %d links@."
    levels width fanout n (List.length links);
  let spec =
    System_spec.uniform ~n ~source:0
      ~drift:(Drift.of_ppm 100)
      ~transit:(Transit.of_q (Scenario.ms 1) (Scenario.ms 20))
      ~links
  in
  let scenario =
    {
      (Scenario.default ~spec
         ~traffic:(Scenario.Ntp_poll { period = Scenario.sec 4 }))
      with
      Scenario.duration = Scenario.sec 120;
      baselines =
        [ Baseline.driftfree ~window:(Scenario.sec 20); Baseline.ntp ];
      seed = 7;
    }
  in
  let r, m = Ex_common.run scenario in
  Format.printf "simulated %s time units: %d messages, %d events@.@."
    (Q.to_string r.Engine.rt_end) (Metrics.sends m) r.Engine.events_total;

  (* final interval width per node and algorithm, grouped by stratum *)
  let stratum p = if p = 0 then 0 else ((p - 1) / width) + 1 in
  let algo name = (List.assoc name r.Engine.per_algo).Engine.final_widths in
  let opt = algo "optimal" and ntp = algo "ntp" and df = algo "driftfree" in
  let rows =
    List.init n (fun p ->
        [
          Printf.sprintf "p%d" p;
          string_of_int (stratum p);
          Table.fq opt.(p);
          Table.fq ntp.(p);
          Table.fq df.(p);
          (if opt.(p) > 0. then Printf.sprintf "%.2fx" (ntp.(p) /. opt.(p))
           else "-");
        ])
  in
  Table.print
    ~header:[ "node"; "stratum"; "optimal"; "ntp"; "driftfree"; "ntp/opt" ]
    rows;

  (* resource usage: the quantities Theorem 3.6 / Corollary 4.1.1 bound *)
  Format.printf "@.resources (bounds from Corollary 4.1.1):@.";
  Ex_common.print_node_resources r;
  Format.printf "@.all intervals contained the true source time: %b@."
    (Ex_common.all_contained m)
