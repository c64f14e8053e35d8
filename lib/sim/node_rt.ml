type envelope = { wire : string; baseline_wires : Baseline.wire list }

type t = {
  proc : Event.proc;
  clock : Clock.t;
  csa : Csa.t;
  mirror : Mirror.t option;
  baselines : Baseline.node list;
  parents : Event.proc list;
  prof : Prof.t;
}

(* the one constructor behind boot and revive: every listed baseline
   starts from scratch at the clock's reading [lt0] *)
let make (scenario : Scenario.t) ~clock ~csa ~mirror ~parents ~lt0 p =
  {
    proc = p;
    clock;
    csa;
    mirror;
    baselines =
      List.map
        (fun a -> Baseline.create a scenario.Scenario.spec ~me:p ~lt0)
        scenario.Scenario.baselines;
    parents;
    prof = scenario.Scenario.prof;
  }

let create (scenario : Scenario.t) ~rng ~links ~sink p =
  let spec = scenario.Scenario.spec in
  let n = System_spec.n spec in
  let lt0 =
    if p = System_spec.source spec then Q.zero
    else Rng.q_between rng Q.zero scenario.Scenario.max_offset
  in
  let clock =
    Clock.create ~drift:(System_spec.drift spec p)
      ~policy:scenario.Scenario.clock_policy
      ~segment:scenario.Scenario.clock_segment ~lt0 ~rng:(Rng.split rng)
  in
  let csa =
    Csa.create
      ~lossy:
        (scenario.Scenario.loss_prob > 0.
        || scenario.Scenario.faults <> []
        || scenario.Scenario.churn <> None)
      ~validate:scenario.Scenario.validate_oracle ~sink
      ~prof:scenario.Scenario.prof spec ~me:p ~lt0
  in
  let mirror =
    if scenario.Scenario.validate then Some (Mirror.create spec ~me:p ~lt0)
    else None
  in
  let parents =
    Topology.parents_toward_source ~n ~links ~source:(System_spec.source spec)
      p
  in
  make scenario ~clock ~csa ~mirror ~parents ~lt0 p

(* the clock survives a crash (hardware keeps ticking); the restored CSA
   carries everything durable.  Baselines have no snapshot — a revived
   node restarts them from scratch, which is exactly the comparison the
   fault scenarios are after.  No mirror: the full-view mirror cannot
   survive a crash, and the engine rejects validate scenarios with
   faults. *)
let revive scenario ~clock ~parents ~csa ~now p =
  make scenario ~clock ~csa ~mirror:None ~parents
    ~lt0:(Clock.lt_of_rt clock now) p

let lt_at t ~rt = Clock.lt_of_rt t.clock rt

let prepare_send t ~dst ~msg ~lt =
  let payload = Csa.send t.csa ~dst ~msg ~lt in
  Option.iter (fun m -> Mirror.send m ~payload) t.mirror;
  let baseline_wires =
    List.map
      (fun (Baseline.Node ((module A), s)) ->
        A.on_send s ~dst ~msg ~lt ~payload)
      t.baselines
  in
  let t0 = Prof.start t.prof in
  let wire = Codec.encode payload in
  Prof.stop t.prof "codec_encode" t0;
  ({ wire; baseline_wires }, Payload.size payload)

let receive t ~src ~msg ~lt env =
  (* messages travel in their encoded form; decode exactly once here *)
  let t0 = Prof.start t.prof in
  let payload = Codec.decode env.wire in
  Prof.stop t.prof "codec_decode" t0;
  Csa.receive t.csa ~msg ~lt payload;
  Option.iter (fun m -> Mirror.receive m ~msg ~lt ~payload) t.mirror;
  List.iter2
    (fun (Baseline.Node ((module A), s)) w ->
      A.on_recv s ~src ~msg ~lt ~payload w)
    t.baselines env.baseline_wires

let estimates t ~lt =
  ("optimal", Csa.estimate_at t.csa ~lt)
  :: List.map
       (fun (Baseline.Node ((module A), s)) -> (A.name, A.estimate_at s ~lt))
       t.baselines

let baseline_estimate t name ~lt =
  List.find_map
    (fun (Baseline.Node ((module A), s)) ->
      if A.name = name then Some (A.estimate_at s ~lt) else None)
    t.baselines

let validate t =
  Option.map
    (fun mirror ->
      let expected =
        Reference.estimate (Csa.spec t.csa) (Mirror.view mirror)
          ~at:(Mirror.last_id mirror)
      in
      Interval.equal expected (Csa.estimate t.csa))
    t.mirror
