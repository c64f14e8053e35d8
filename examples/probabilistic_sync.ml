(* Probabilistic clock synchronization (Cristian [5], Section 4).

   Clients fire bursts of round-trip probes whenever their estimate
   loosens past a target, and Cristian's filter only accepts quick round
   trips.  The paper's point: even under this adaptive pattern, the
   optimal algorithm extracts strictly more from the very same probes.

   Run with:  dune exec examples/probabilistic_sync.exe *)

let () =
  Format.printf "== probabilistic synchronization (burst round trips) ==@.@.";
  let n = 4 in
  let spec =
    System_spec.uniform ~n ~source:0
      ~drift:(Drift.of_ppm 200)
      ~transit:(Transit.of_q (Scenario.ms 1) (Scenario.ms 15))
      ~links:(Topology.star n)
  in
  let width_target = Scenario.ms 6 in
  let scenario =
    {
      (Scenario.default ~spec
         ~traffic:
           (Scenario.Burst { check_period = Scenario.sec 2; width_target }))
      with
      Scenario.duration = Scenario.sec 60;
      baselines = [ Baseline.cristian ~rtt_threshold:(Scenario.ms 8) ];
      seed = 3;
    }
  in
  Format.printf
    "3 clients around a source; burst while cristian width > %gs; accept rtt <= %gs@."
    (Q.to_float width_target)
    (Q.to_float (Scenario.ms 8));
  let r, m = Ex_common.run scenario in
  Format.printf "@.%d probes sent over %s time units@." (Metrics.sends m)
    (Q.to_string r.Engine.rt_end);
  Ex_common.print_algo_table m;
  Format.printf
    "@.width over time at the sampled nodes (first 10 series points):@.";
  List.iteri
    (fun i (rt, widths) ->
      if i < 10 then
        Format.printf "  t=%8.3f  optimal=%-12s cristian=%s@." rt
          (Table.fq (List.assoc "optimal" widths))
          (Table.fq (List.assoc "cristian" widths)))
    r.Engine.series
