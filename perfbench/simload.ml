(* Simulator workload: [Engine.run] on the [clocksync run -n 8]
   defaults (8-node star, NTP polling every 1 s, 30 s, drift 100 ppm,
   transit 1-10 ms), optimal CSA only, no loss.  No hub, fabric or
   session code runs.

   There is no hub here, so the frame-handler figures describe the
   simulator's own delivery loop: a frame is a delivered message, busy
   time is the CPU time of [Engine.run] after its first message, and the
   time per frame is the CPU time between consecutive deliveries as a
   trace sink sees them.

   Widths are those of every optimal-CSA estimate the clients take (one
   per delivery), not only the seven final ones: seven values per input
   give neither a steady median across seeds nor a p99. *)

let nodes = 8

let scenario ~seed ~trace ~prof =
  let spec =
    System_spec.uniform ~n:nodes ~source:0 ~drift:(Drift.of_ppm 100)
      ~transit:(Transit.of_q (Scenario.ms 1) (Scenario.ms 10))
      ~links:(Topology.star nodes)
  in
  {
    (Scenario.default ~spec ~traffic:(Scenario.Ntp_poll { period = Q.one })) with
    Scenario.duration = Scenario.sec 30;
    seed;
    trace;
    prof;
  }

let run ~seed ~tracer:tr ~ckpt_dir:_ =
  let wrap name f = Tracer.wrap tr name f in
  let first = ref nan and first_cpu = ref nan and last = ref nan and recvs = ref 0 in
  let gaps = ref [] and widths = ref [] in
  let meter = match tr with None -> Some (Calib.meter ()) | Some _ -> None in
  (* node start-up already emits events (initial liveness); set-up ends
     at the first message *)
  let probe = function
    | Trace.Send _ when Float.is_nan !first ->
      first := Tracer.now ();
      first_cpu := Tracer.cpu_now ();
      last := !first_cpu
    | Trace.Receive _ ->
      let t = Tracer.cpu_now () in
      incr recvs;
      gaps := ((t -. !last) *. 1e6) :: !gaps;
      last := t;
      (* a calibration slice between deliveries stays out of the gaps *)
      Option.iter (fun m -> if Calib.tick m then last := Tracer.cpu_now ()) meter
    | Trace.Estimate { node; algo = "optimal"; width; _ } when node <> 0 ->
      widths := (1000. *. width) :: !widths
    | _ -> ()
  in
  let prof = match tr with None -> Prof.null | Some t -> Tracer.prof t in
  let t_start = Tracer.now () and c_start = Tracer.cpu_now () in
  let r =
    wrap "episode" @@ fun () ->
    let sc = wrap "setup" (fun () -> scenario ~seed ~trace:(Trace.callback probe) ~prof) in
    wrap "engine.run" (fun () -> Engine.run sc)
  in
  let t_end = Tracer.now () and t_end_cpu = Tracer.cpu_now () in
  let slices_wall, slices_cpu =
    match meter with Some m -> (m.Calib.wall_s, m.Calib.cpu_s) | None -> (0., 0.)
  in
  let opt = List.assoc "optimal" r.Engine.per_algo in
  let widths = Array.of_list (List.rev !widths) in
  (* sent minus lost still counts messages in flight at the horizon *)
  let delivered = !recvs in
  let in_flight = r.Engine.messages_sent - r.Engine.messages_lost - delivered in
  let per_node f = Array.fold_left (fun a n -> a + f n) 0 r.Engine.per_node in
  let inserts = per_node (fun n -> n.Engine.events_processed) in
  let violations =
    List.concat
      [
        (if r.Engine.soundness_failures = 0 then []
         else [ Printf.sprintf "%d soundness failures" r.Engine.soundness_failures ]);
        (if opt.Engine.contained = opt.Engine.samples then []
         else
           [ Printf.sprintf "optimal CSA contained %d of %d samples" opt.Engine.contained
               opt.Engine.samples ]);
        (if Array.for_all Float.is_finite widths then []
         else [ "a client estimate was unbounded" ]);
        (if in_flight >= 0 then []
         else [ Printf.sprintf "%d deliveries seen, more than the %d messages sent" delivered
                  (r.Engine.messages_sent - r.Engine.messages_lost) ]);
      ]
  in
  let fi = float_of_int in
  {
    Episode.setup_s = !first -. t_start;
    wall_s = t_end -. t_start -. slices_wall;
    cpu_s = t_end_cpu -. c_start -. slices_cpu;
    msgs = delivered;
    busy_s = t_end_cpu -. !first_cpu -. slices_cpu;
    frames = delivered;
    frame_us = Array.of_list !gaps;
    samples = opt.Engine.samples;
    uncontained = opt.Engine.samples - opt.Engine.contained;
    widths_ms = widths;
    violations;
    det =
      [
        ("sim.messages_sent", string_of_int r.Engine.messages_sent);
        ("sim.events_total", string_of_int r.Engine.events_total);
        ("agdp.insert_calls", string_of_int inserts);
        ("widths", Episode.widths_key widths);
      ];
    layer =
      [
        ("agdp.insert_calls", fi inserts);
        ("agdp.relaxations", fi (per_node (fun n -> n.Engine.relaxations)));
        ("agdp.live_peak",
         fi (Array.fold_left (fun a n -> max a n.Engine.peak_live) 0 r.Engine.per_node));
      ];
    scale = (match meter with Some m -> Calib.scale m | None -> nan);
  }
