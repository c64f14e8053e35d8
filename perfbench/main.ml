(* The repo benchmark: one seeded workload per invocation.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Timed phase: the workload's fixed inputs (derived from the seed) run
   round-robin, untraced, for about S seconds; every run is checked for
   correctness and the end-to-end metrics are pooled over all of them.
   With --trace 1 the first input then runs once more under the span
   recorder, which gives the per-layer numbers; its deterministic
   outputs must equal the untraced runs of the same input.  The last
   line of standard output is the JSON result; the process exits 1 on
   any correctness violation. *)

type workload = {
  name : string;
  inputs : int;  (** distinct seeded inputs per invocation *)
  run : seed:int -> tracer:Tracer.t option -> ckpt_dir:string -> Episode.t;
}

let workloads =
  [
    {
      name = "hub-k128";
      inputs = 8;
      run =
        Hubload.run
          {
            Hubload.clients = 128;
            loss = 0.;
            checkpoint = false;
            duration = Q.of_int 6;
          };
    };
    {
      name = "hub-lossy-k32";
      inputs = 16;
      run =
        Hubload.run
          {
            Hubload.clients = 32;
            loss = 0.05;
            checkpoint = true;
            duration = Q.of_int 10;
          };
    };
    { name = "sim-star8"; inputs = 8; run = Simload.run };
  ]

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* nearest rank, as [Swarm.p_width] *)
let pct a p =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median a =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sumf = List.fold_left ( +. ) 0.
let fi = float_of_int

type gc = { minor : float; promoted : float; majors : int }

let timed w ~seed ~ckpt_dir =
  let g0 = Gc.quick_stat () in
  let e = w.run ~seed ~tracer:None ~ckpt_dir in
  let g1 = Gc.quick_stat () in
  ( e,
    {
      minor = g1.Gc.minor_words -. g0.Gc.minor_words;
      promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words;
      majors = g1.Gc.major_collections - g0.Gc.major_collections;
    } )

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let commit = ref "unknown" and nproc = ref "unknown" and profile = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 also make the traced run");
      ("--commit", Arg.Set_string commit, "ID recorded in the output");
      ("--nproc", Arg.Set_string nproc, "N recorded in the output");
      ("--profile", Arg.Set_string profile, "P dune profile, recorded in the output");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      prerr_endline
        ("unknown workload " ^ !workload ^ " (known: "
        ^ String.concat ", " (List.map (fun w -> w.name) workloads)
        ^ ")");
      exit 2
  in
  let out = "_build/perfbench" in
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  let tmp = Printf.sprintf "%s/tmp-%d" out (Unix.getpid ()) in
  let ckpt_dir fmt = Printf.ksprintf (Filename.concat tmp) fmt in
  let input i = (!seed * 1000) + i in
  (* ---- timed phase ---- *)
  let t0 = Tracer.now () in
  let runs = ref [] and n = ref 0 in
  let go_on () =
    !n < w.inputs
    ||
    let el = Tracer.now () -. t0 in
    el +. (el /. fi !n) <= !seconds
  in
  while go_on () do
    let i = !n mod w.inputs in
    (* every run starts from a collected heap, so it does not pay for
       the previous run's garbage *)
    Gc.full_major ();
    let e, g = timed w ~seed:(input i) ~ckpt_dir:(ckpt_dir "run%d" !n) in
    runs := (i, e, g) :: !runs;
    incr n
  done;
  let measured_s = Tracer.now () -. t0 in
  let peak_heap_mb =
    fi (Gc.quick_stat ()).Gc.top_heap_words *. fi (Sys.word_size / 8) /. 1e6
  in
  let runs = List.rev !runs in
  let eps = List.map (fun (_, e, _) -> e) runs in
  let first_pass = List.filteri (fun k _ -> k < w.inputs) eps in
  let violations = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  List.iteri
    (fun k (i, (e : Episode.t), _) ->
      List.iter (fun m -> fail "run %d (input %d): %s" k i m) e.Episode.violations;
      if Float.is_nan e.Episode.scale then fail "run %d (input %d): no calibration slice ran" k i;
      let ref_det = (List.nth first_pass i).Episode.det in
      if e.Episode.det <> ref_det then
        fail "run %d (input %d): outputs differ from the first run of that input" k i)
    runs;
  let frame_samples = List.fold_left (fun a e -> a + Array.length e.Episode.frame_us) 0 eps in
  let widths = Array.concat (List.map (fun e -> e.Episode.widths_ms) first_pass) in
  let samples = List.fold_left (fun a e -> a + e.Episode.samples) 0 eps in
  let uncontained = List.fold_left (fun a e -> a + e.Episode.uncontained) 0 eps in
  (* Every timing is a run's figure in reference seconds (its measured
     seconds times its [scale], see Calib), then the median over the
     runs. *)
  let per_run f = median (Array.of_list (List.map (fun e -> f e e.Episode.scale) eps)) in
  let e2e =
    [
      ("setup_s", "s", per_run (fun e k -> e.Episode.setup_s *. k));
      ("msgs_per_s", "1/s", per_run (fun e k -> fi e.Episode.msgs /. (e.Episode.cpu_s *. k)));
      ( "hub_frames_per_cpu_s",
        "1/s",
        per_run (fun e k -> fi e.Episode.frames /. (e.Episode.busy_s *. k)) );
      ("hub_frame_us_p50", "us", per_run (fun e k -> pct e.Episode.frame_us 50. *. k));
      ("hub_frame_us_p99", "us", per_run (fun e k -> pct e.Episode.frame_us 99. *. k));
      ("width_ms_p50", "ms", pct widths 50.);
      ("width_ms_p99", "ms", pct widths 99.);
      ("peak_heap_mb", "MB", peak_heap_mb);
    ]
  in
  let failed_share = if samples = 0 then 0. else fi uncontained /. fi samples in
  (* ---- traced run of input 0 ---- *)
  let traced =
    if !trace = 0 then None
    else begin
      let tr = Tracer.create () in
      let te = w.run ~seed:(input 0) ~tracer:(Some tr) ~ckpt_dir:(ckpt_dir "traced") in
      let e0 = List.hd eps in
      List.iter (fun m -> fail "traced run: %s" m) te.Episode.violations;
      List.iter2
        (fun (k, a) (_, b) ->
          if a <> b then fail "traced run changed %s (untraced %s, traced %s)" k a b)
        e0.Episode.det te.Episode.det;
      Some (tr, te)
    end
  in
  let per_layer, table =
    match traced with
    | None -> ([], [])
    | Some (tr, te) ->
      let lay k = Option.value ~default:0. (List.assoc_opt k te.Episode.layer) in
      let span_n name = fi (fst (Tracer.total_by_name tr name)) in
      let span_s name = snd (Tracer.total_by_name tr name) in
      let libs name = Array.of_list (Tracer.lib_durations tr name) in
      let lib_n name = fi (Array.length (libs name)) in
      let lib_s name = Array.fold_left ( +. ) 0. (libs name) in
      let ratio a b = if b = 0. then 0. else a /. b in
      let rows = Tracer.self_times tr ~root:0 in
      let row k = Option.value ~default:0. (List.assoc_opt k rows) in
      let wall = span_s "episode" in
      let untraced_wall =
        median
          (Array.of_list
             (List.filter_map (fun (i, e, _) -> if i = 0 then Some e.Episode.wall_s else None) runs))
      in
      if lib_n "agdp_insert" <> lay "agdp.insert_calls" then
        fail "traced run: %.0f agdp_insert spans but %.0f inserts counted"
          (lib_n "agdp_insert") (lay "agdp.insert_calls");
      List.iter (fun (k, v) -> if v < -1e-6 then fail "traced run: negative self time %s %g" k v) rows;
      let _, _, g0 = List.hd runs in
      let msgs0 = fi (List.hd eps).Episode.msgs in
      let layers =
        [ "setup"; "hub"; "client"; "fabric"; "session"; "codec"; "agdp";
          "checkpoint.encode"; "checkpoint.store"; "engine"; "bench" ]
      in
      let metrics =
        [
          ("hub.poll_s", "s", lay "hub.poll_s");
          ("hub.polls", "count", lay "hub.polls");
          ("hub.idle_polls", "count", lay "hub.idle_polls");
          ("hub.idle_poll_s", "s", lay "hub.idle_poll_s");
          ("hub.idle_poll_share", "ratio", ratio (lay "hub.idle_poll_s") (lay "hub.poll_s"));
          ("hub.forced_polls", "count", lay "hub.forced_polls");
          ("hub.forced_poll_share", "ratio", ratio (lay "hub.forced_polls") (lay "hub.polls"));
          ("hub.deadline_calls", "count", lay "hub.deadline_calls");
          ("hub.deadline_s", "s", lay "hub.deadline_s");
          ( "hub.deadline_share",
            "ratio",
            ratio (lay "hub.deadline_s") (lay "hub.poll_s" +. lay "hub.deadline_s") );
          ("hub.frames", "count", lay "hub.frames");
          ("hub.batched", "count", lay "hub.batched");
          ("hub.coalesced", "count", lay "hub.coalesced");
          ("client.poll_s", "s", span_s "client.poll");
          ("client.polls", "count", span_n "client.poll");
          ("client.deadline_s", "s", span_s "client.deadline");
          ("fabric.self_s", "s", row "fabric");
          ("fabric.delivered", "count", lay "fabric.delivered");
          ("fabric.dropped", "count", lay "fabric.dropped");
          ("net.send_calls", "count", lay "net.send_calls");
          ("net.send_bytes", "bytes", lay "net.send_bytes");
          ("net.recv_calls", "count", lay "net.recv_calls");
          ("net.recv_hit_ratio", "ratio", ratio (lay "net.recv_hits") (lay "net.recv_calls"));
          ("codec.decode_calls", "count", lib_n "codec_decode");
          ("codec.decode_s", "s", lib_s "codec_decode");
          ("codec.encode_calls", "count", lib_n "codec_encode");
          ("codec.encode_s", "s", lib_s "codec_encode");
          ("agdp.insert_calls", "count", lib_n "agdp_insert");
          ("agdp.insert_s", "s", lib_s "agdp_insert");
          ("agdp.insert_us_p50", "us", 1e6 *. pct (libs "agdp_insert") 50.);
          ("agdp.insert_us_p99", "us", 1e6 *. pct (libs "agdp_insert") 99.);
          ("agdp.kill_s", "s", lib_s "agdp_kill");
          ("agdp.relaxations_per_insert", "count",
           ratio (lay "agdp.relaxations") (lay "agdp.insert_calls"));
          ("agdp.live_peak", "count", lay "agdp.live_peak");
          ("checkpoint.writes", "count", lay "checkpoint.writes");
          ("checkpoint.bytes", "bytes", lay "checkpoint.bytes");
          ("checkpoint.encode_s", "s", lib_s "checkpoint.encode");
          ("checkpoint.store_s", "s", span_s "checkpoint.store");
          ("session.retransmits", "count", lay "session.retransmits");
          ("session.lost", "count", lay "session.lost");
          ("session.drops", "count", lay "session.drops");
          ("session.sample_s", "s", span_s "session.sample");
          ("gc.minor_words_per_msg", "words", ratio g0.minor msgs0);
          ("gc.promoted_words", "words", g0.promoted);
          ("gc.major_collections", "count", fi g0.majors);
          ("trace.wall_s", "s", wall);
          ("trace.overhead", "ratio", ratio wall untraced_wall);
          ("trace.unattributed_s", "s", row "unattributed");
          ("trace.unattributed_share", "ratio", ratio (row "unattributed") wall);
        ]
        @ List.concat_map
            (fun l ->
              [ ("self." ^ l ^ "_s", "s", row l); ("self." ^ l ^ "_share", "ratio", ratio (row l) wall) ])
            layers
      in
      let table = List.map (fun (k, v) -> (k, v, ratio v wall)) rows in
      Tracer.dump tr (Printf.sprintf "%s/spans-%s-%d.tsv" out w.name !seed);
      (metrics, table)
  in
  (try Sys.rmdir tmp with Sys_error _ -> ());
  let correct = !violations = [] in
  (* ---- human-readable report ---- *)
  Printf.printf "perfbench %s  seed=%d seconds=%g trace=%d  commit=%s nproc=%s ocaml=%s profile=%s\n"
    w.name !seed !seconds !trace !commit !nproc Sys.ocaml_version !profile;
  Printf.printf "timed: %d runs of %d inputs in %.2f s; %d frame samples, %d widths, %d estimate samples\n"
    (List.length runs) w.inputs measured_s frame_samples (Array.length widths) samples;
  Printf.printf "host speed: timings below are in reference seconds, measured seconds x %.4f (median over runs)\n"
    (median (Array.of_list (List.map (fun e -> e.Episode.scale) eps)));
  List.iter (fun (k, u, v) -> Printf.printf "  %-22s %14.6g %s\n" k v u) e2e;
  Printf.printf "  %-22s %14.6g ratio (%d of %d samples missed true time)\n" "failed_share"
    failed_share uncontained samples;
  if table <> [] then begin
    Printf.printf "traced run of input 0: self time per layer\n";
    List.iter (fun (k, v, share) -> Printf.printf "  %-22s %12.6f s %6.1f%%\n" k v (100. *. share)) table;
    Printf.printf "  %-22s %12.6f s (rows sum to the traced wall time)\n" "total"
      (sumf (List.map (fun (_, v, _) -> v) table));
    Printf.printf "per-layer:\n";
    List.iter (fun (k, u, v) -> Printf.printf "  %-28s %14.6g %s\n" k v u) per_layer
  end;
  if correct then print_endline "correctness: ok"
  else List.iter (fun m -> print_endline ("correctness: FAILED: " ^ m)) (List.rev !violations);
  (* ---- raw values, then the result line ---- *)
  let num f = if Float.is_finite f then Json_out.Float f else Json_out.Null in
  let metric_obj l =
    Json_out.Obj
      (List.map (fun (k, u, v) -> (k, Json_out.Obj [ ("value", num v); ("unit", Json_out.Str u) ])) l)
  in
  let raw =
    Json_out.Obj
      [
        ( "perfbench",
          Json_out.Obj
            [
              ("workload", Json_out.Str w.name);
              ("seed", Json_out.Int !seed);
              ("inputs", Json_out.List (List.init w.inputs (fun i -> Json_out.Int (input i))));
              ("commit", Json_out.Str !commit);
              ("nproc", Json_out.Str !nproc);
              ("ocaml", Json_out.Str Sys.ocaml_version);
              ("profile", Json_out.Str !profile);
              ("failed_share", num failed_share);
              ( "runs",
                Json_out.List
                  (List.map
                     (fun (i, (e : Episode.t), g) ->
                       Json_out.Obj
                         [
                           ("input", Json_out.Int i);
                           ("scale", num e.scale);
                           ("setup_s", num e.setup_s);
                           ("wall_s", num e.wall_s);
                           ("cpu_s", num e.cpu_s);
                           ("msgs", Json_out.Int e.msgs);
                           ("busy_s", num e.busy_s);
                           ("frames", Json_out.Int e.frames);
                           ("frame_us_p50", num (pct e.frame_us 50.));
                           ("frame_us_p99", num (pct e.frame_us 99.));
                           ("samples", Json_out.Int e.samples);
                           ("uncontained", Json_out.Int e.uncontained);
                           ("gc_minor_words", num g.minor);
                           ("gc_promoted_words", num g.promoted);
                           ("gc_major_collections", Json_out.Int g.majors);
                         ])
                     runs) );
              ("widths_ms", Json_out.List (Array.to_list (Array.map num widths)));
              ("per_layer", metric_obj per_layer);
              ("violations", Json_out.List (List.rev_map (fun m -> Json_out.Str m) !violations));
            ] );
      ]
  in
  print_endline (Json_out.to_line raw);
  print_endline
    (Json_out.to_line
       (Json_out.Obj
          [
            ("correct", Json_out.Bool correct);
            ("attempted", Json_out.Int samples);
            ("failed", Json_out.Int uncontained);
            ("metrics", metric_obj (if !trace = 0 then e2e else per_layer));
          ]));
  exit (if correct then 0 else 1)
