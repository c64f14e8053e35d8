(* Hub tests — cohort sharding, batching/coalescing accounting, and the
   load generator, all on the deterministic loopback fabric.  The
   centerpiece is the equivalence property: a hub serving K clients
   gives every client the exact interval trajectory it would get from
   its own private reference node — cohort sharing is invisible not
   just on the wire but in the estimates. *)

let ms = Scenario.ms
let q_one = Q.one

let star_spec ~nodes = Swarm.star_spec ~nodes ~drift_ppm:300 ~hi_ms:50

type client_clock = { g : int; offset : Q.t; rate : Q.t }

let mk_cfg ~spec ~me ~heartbeat =
  { (Session.default_config ~me ~spec) with Session.heartbeat }

(* one client against its own private reference node: the baseline
   trajectory.  Fixed transit delay and no loss make the fabric
   deterministic without consulting its RNG, so the hub world below
   sees identical packet timings. *)
let pair_trajectory ~spec ~delay ~heartbeat ~samples cc =
  let fab = Loopback.fabric ~seed:1 ~delay_lo:delay ~delay_hi:delay () in
  let sep = Loopback.endpoint fab ~id:0 () in
  let cep = Loopback.endpoint fab ~id:cc.g ~offset:cc.offset ~rate:cc.rate () in
  let ssess =
    Session.create (mk_cfg ~spec ~me:0 ~heartbeat) ~now:(Loopback.Net.now sep)
  in
  let csess =
    Session.create (mk_cfg ~spec ~me:cc.g ~heartbeat)
      ~now:(Loopback.Net.now cep)
  in
  let sloop = Loopback.L.create ~net:sep ~session:ssess () in
  let cloop = Loopback.L.create ~net:cep ~session:csess () in
  Loopback.L.learn cloop ~peer:0 0;
  let out = ref [] in
  let script =
    List.map
      (fun vt ->
        ( vt,
          fun () ->
            out :=
              Session.sample csess ~now:(Loopback.Net.now cep) () :: !out ))
      samples
  in
  let until = Q.add (List.fold_left Q.max Q.zero samples) (ms 1) in
  Loopback.run fab ~loops:[ sloop; cloop ] ~until ~script ();
  List.rev !out

(* the same clients behind one hub, sharded into cohorts *)
let hub_trajectories ~spec ~cohort ~delay ~heartbeat ~samples ccs =
  let fab = Loopback.fabric ~seed:1 ~delay_lo:delay ~delay_hi:delay () in
  let hub_ep = Loopback.endpoint fab ~id:0 () in
  let cfg0 = mk_cfg ~spec ~me:0 ~heartbeat in
  let hub =
    match
      Swarm.Lhub.create ~net:hub_ep ~spec ~cohort_size:cohort
        ~mk_session:(fun ~idx:_ ~members ->
          Ok
            (Session.create ~peers:members cfg0
               ~now:(Loopback.Net.now hub_ep)))
        ()
    with
    | Ok h -> h
    | Error m -> Alcotest.failf "hub create: %s" m
  in
  let clients =
    List.map
      (fun cc ->
        let ep =
          Loopback.endpoint fab ~id:cc.g ~offset:cc.offset ~rate:cc.rate ()
        in
        let session =
          Session.create
            (mk_cfg ~spec ~me:cc.g ~heartbeat)
            ~now:(Loopback.Net.now ep)
        in
        let loop = Loopback.L.create ~net:ep ~session () in
        Loopback.L.learn loop ~peer:0 0;
        (cc, ep, session, loop, ref []))
      ccs
  in
  let drivers =
    {
      Loopback.poll = (fun () -> Swarm.Lhub.poll hub ~max_wait:Q.zero);
      next_vt = (fun () -> Swarm.Lhub.next_deadline hub);
      addr = Some 0;
    }
    :: List.map (fun (_, _, _, loop, _) -> Loopback.driver_of_loop loop)
         clients
  in
  let script =
    List.map
      (fun vt ->
        ( vt,
          fun () ->
            List.iter
              (fun (_, ep, session, _, out) ->
                out :=
                  Session.sample session ~now:(Loopback.Net.now ep) ()
                  :: !out)
              clients ))
      samples
  in
  let until = Q.add (List.fold_left Q.max Q.zero samples) (ms 1) in
  Loopback.run_drivers fab ~drivers ~until ~script ();
  (hub, List.map (fun (cc, _, _, _, out) -> (cc.g, List.rev !out)) clients)

let check_equal_trajectories ~what pair hubbed =
  List.iteri
    (fun i (p, h) ->
      if not (Interval.equal p h) then
        Alcotest.failf "%s: sample %d differs: pair %s, hub %s" what i
          (Interval.to_string p) (Interval.to_string h))
    (List.combine pair hubbed)

let default_clients =
  [
    { g = 1; offset = ms 40; rate = Q.add Q.one (Q.of_ints 120 1_000_000) };
    { g = 2; offset = ms 0; rate = Q.sub Q.one (Q.of_ints 250 1_000_000) };
    { g = 3; offset = ms 210; rate = Q.one };
    { g = 4; offset = ms 999; rate = Q.add Q.one (Q.of_ints 7 1_000_000) };
    { g = 5; offset = ms 3; rate = Q.sub Q.one (Q.of_ints 300 1_000_000) };
  ]

let samples_1_to_8 = List.init 8 (fun k -> Q.of_int (k + 1))

let test_hub_equals_pairs () =
  let nodes = List.length default_clients + 1 in
  let spec = star_spec ~nodes in
  let delay = ms 10 and heartbeat = Q.of_ints 1 2 in
  List.iter
    (fun cohort ->
      let _, hub_trajs =
        hub_trajectories ~spec ~cohort ~delay ~heartbeat
          ~samples:samples_1_to_8 default_clients
      in
      List.iter
        (fun cc ->
          let pair =
            pair_trajectory ~spec ~delay ~heartbeat ~samples:samples_1_to_8
              cc
          in
          let hubbed = List.assoc cc.g hub_trajs in
          check_equal_trajectories
            ~what:(Printf.sprintf "cohort=%d client %d" cohort cc.g)
            pair hubbed)
        default_clients)
    [ 1; 2; 5 ]

(* the same property under QCheck-randomized clocks, delays, cadences
   and cohort sizes *)
let prop_hub_equals_pairs =
  let open QCheck in
  let gen =
    Gen.(
      let* k = int_range 2 6 in
      let* cohort = int_range 1 4 in
      let* delay_ms = int_range 2 40 in
      let* hb_ms = int_range 200 900 in
      let* clocks =
        flatten_l
          (List.init k (fun i ->
               let* off = int_range 0 800 in
               let* ppm = int_range (-300) 300 in
               return
                 {
                   g = i + 1;
                   offset = Scenario.ms off;
                   rate = Q.add Q.one (Q.of_ints ppm 1_000_000);
                 }))
      in
      return (k, cohort, delay_ms, hb_ms, clocks))
  in
  let print (k, cohort, delay_ms, hb_ms, _) =
    Printf.sprintf "k=%d cohort=%d delay=%dms hb=%dms" k cohort delay_ms
      hb_ms
  in
  QCheck.Test.make ~count:12
    ~name:"hub: K clients == K private serve/peer pairs"
    (QCheck.make ~print gen)
    (fun (k, cohort, delay_ms, hb_ms, clocks) ->
      let spec = star_spec ~nodes:(k + 1) in
      let delay = ms delay_ms in
      let heartbeat = Q.of_ints hb_ms 1000 in
      let samples = List.init 6 (fun i -> Q.of_int (i + 1)) in
      let _, hub_trajs =
        hub_trajectories ~spec ~cohort ~delay ~heartbeat ~samples clocks
      in
      List.for_all
        (fun cc ->
          let pair = pair_trajectory ~spec ~delay ~heartbeat ~samples cc in
          List.for_all2 Interval.equal pair (List.assoc cc.g hub_trajs))
        clocks)

(* --- reference hub ---------------------------------------------------- *)

(* The hub drive loop without the deadline index or the touched set:
   every poll ticks every cohort, flushes every cohort, and folds
   [Session.next_deadline] over every cohort.  Built on the public
   Session/Frame API alone, it is the oracle the indexed hub must match
   event for event. *)
module Ref_hub = struct
  type t = {
    ep : Loopback.endpoint;
    sink : Trace.sink;
    n : int;
    cohort_size : int;
    sessions : Session.t array;
    routes : (int, int) Hashtbl.t;
    rbuf : Bytes.t;
  }

  let create ~sink ~ep ~n ~cohort_size ~mk_session =
    let ncoh = (n - 1 + cohort_size - 1) / cohort_size in
    let sessions =
      Array.init ncoh (fun idx ->
          let lo = 1 + (idx * cohort_size) in
          let hi = min (n - 1) (lo + cohort_size - 1) in
          mk_session ~idx ~members:(List.init (hi - lo + 1) (fun k -> lo + k)))
    in
    { ep; sink; n; cohort_size; sessions; routes = Hashtbl.create 16;
      rbuf = Bytes.create Frame.max_frame }

  let flush t =
    Array.iter
      (fun s ->
        List.iter
          (fun (dst, bytes) ->
            match Hashtbl.find_opt t.routes dst with
            | Some a -> Loopback.Net.send t.ep a bytes
            | None -> ())
          (Session.drain s))
      t.sessions

  let handle t (addr, len) =
    let now = Loopback.Net.now t.ep in
    let drop reason =
      Trace.emit t.sink (Trace.Net_drop { t = Q.to_float now; reason })
    in
    match Frame.decode_sub t.rbuf ~pos:0 ~len with
    | Error e -> drop ("frame: " ^ e)
    | Ok frame ->
      let g = frame.Frame.sender in
      if g < 1 || g >= t.n then
        drop (Printf.sprintf "frame from non-client %d" g)
      else begin
        let s = t.sessions.((g - 1) / t.cohort_size) in
        Hashtbl.replace t.routes g addr;
        Session.peer_reachable s ~peer:g ~now;
        Session.handle s ~now ~bytes:len frame
      end

  let next_deadline t =
    Array.fold_left
      (fun acc s ->
        match (acc, Session.next_deadline s) with
        | None, d | d, None -> d
        | Some a, Some d -> Some (Q.min a d))
      None t.sessions

  (* the hub's default burst cap: 256 datagrams per wakeup *)
  let poll t =
    let now = Loopback.Net.now t.ep in
    Array.iter (fun s -> Session.tick s ~now) t.sessions;
    flush t;
    let rec go k =
      if k < 256 then
        match Loopback.Net.recv t.ep ~buf:t.rbuf ~timeout:Q.zero with
        | None -> ()
        | Some d ->
          handle t d;
          go (k + 1)
    in
    go 0;
    flush t

  let stop t ~now =
    Array.iter (fun s -> Session.stop s ~now) t.sessions;
    flush t
end

type hub_ops = {
  h_poll : unit -> unit;
  h_next : unit -> Q.t option;
  h_session : int -> Session.t;
  h_stop : now:Q.t -> unit;
}

(* One seeded world: a hub (indexed or reference) and [k] clients on a
   lossy fabric with random transit, write-ahead checkpoints into
   memory, a session mutated through the hub's [session] mid-run, and a
   hub stop before the end.  Returns the rendered trace and the hub's
   next deadline after every poll. *)
let hub_world ~reference ~k ~cohort ~loss =
  let events = ref [] in
  let sink =
    Trace.callback (fun e ->
        events := Json_out.to_line (Trace.json_of_event e) :: !events)
  in
  let spec = star_spec ~nodes:(k + 1) in
  let fab =
    Loopback.fabric ~seed:13 ~loss ~delay_lo:(ms 2) ~delay_hi:(ms 30) ()
  in
  let hub_ep = Loopback.endpoint fab ~id:0 () in
  let cfg0 = mk_cfg ~spec ~me:0 ~heartbeat:(Q.of_ints 1 2) in
  let mk_session ~idx:_ ~members =
    let s = Session.create ~sink ~peers:members cfg0 ~now:Q.zero in
    let disk = ref "" in
    Session.set_checkpoint s (fun blob -> disk := blob);
    s
  in
  let ops =
    if reference then
      let h =
        Ref_hub.create ~sink ~ep:hub_ep ~n:(k + 1) ~cohort_size:cohort
          ~mk_session
      in
      {
        h_poll = (fun () -> Ref_hub.poll h);
        h_next = (fun () -> Ref_hub.next_deadline h);
        h_session = (fun i -> h.Ref_hub.sessions.(i));
        h_stop = Ref_hub.stop h;
      }
    else
      match
        Swarm.Lhub.create ~sink ~net:hub_ep ~spec ~cohort_size:cohort
          ~mk_session:(fun ~idx ~members -> Ok (mk_session ~idx ~members))
          ()
      with
      | Error m -> Alcotest.failf "create: %s" m
      | Ok h ->
        {
          h_poll = (fun () -> Swarm.Lhub.poll h ~max_wait:Q.zero);
          h_next = (fun () -> Swarm.Lhub.next_deadline h);
          h_session = Swarm.Lhub.session h;
          h_stop = Swarm.Lhub.stop h;
        }
  in
  let clients =
    List.init k (fun i ->
        let g = i + 1 in
        let ep =
          Loopback.endpoint fab ~id:g
            ~offset:(ms (37 * g mod 200))
            ~rate:(Q.add Q.one (Q.of_ints ((53 * g mod 401) - 200) 1_000_000))
            ()
        in
        let session =
          Session.create ~sink
            (mk_cfg ~spec ~me:g ~heartbeat:(Q.of_ints 1 2))
            ~now:(Loopback.Net.now ep)
        in
        let loop = Loopback.L.create ~net:ep ~session () in
        Loopback.L.learn loop ~peer:0 0;
        (ep, session, loop))
  in
  let deadlines = ref [] in
  let drivers =
    {
      Loopback.poll =
        (fun () ->
          ops.h_poll ();
          deadlines := ops.h_next () :: !deadlines);
      next_vt = ops.h_next;
      addr = Some 0;
    }
    :: List.map (fun (_, _, loop) -> Loopback.driver_of_loop loop) clients
  in
  let sample () =
    List.iter
      (fun (ep, session, _) ->
        ignore (Session.sample session ~now:(Loopback.Net.now ep) ()))
      clients
  in
  let script =
    List.init 5 (fun i -> (Q.of_int (i + 1), sample))
    @ [
        ( Q.of_ints 5 2,
          fun () ->
            (* a forced data round through the handed-out session *)
            let s = ops.h_session 0 in
            List.iter
              (fun m ->
                if Session.established s m then
                  Session.send_data s ~now:(Loopback.vnow fab) ~dst:m)
              (Session.peer_ids s) );
        (Q.of_ints 9 2, fun () -> ops.h_stop ~now:(Loopback.vnow fab));
      ]
  in
  Loopback.run_drivers fab ~drivers ~until:(Q.of_int 6) ~script ();
  ( List.rev !events,
    List.rev !deadlines,
    (Loopback.delivered fab, Loopback.dropped fab) )

let test_hub_matches_reference () =
  List.iter
    (fun (k, cohort, loss) ->
      let what = Printf.sprintf "K=%d cohort=%d loss=%.1f" k cohort loss in
      let ev, dl, fab = hub_world ~reference:false ~k ~cohort ~loss in
      let ev', dl', fab' = hub_world ~reference:true ~k ~cohort ~loss in
      Alcotest.(check (pair int int)) (what ^ ": fabric counts") fab' fab;
      Alcotest.(check int) (what ^ ": polls") (List.length dl') (List.length dl);
      List.iteri
        (fun i (a, b) ->
          if not (Option.equal Q.equal a b) then
            Alcotest.failf "%s: next_deadline differs after poll %d" what i)
        (List.combine dl' dl);
      Alcotest.(check int) (what ^ ": events") (List.length ev') (List.length ev);
      List.iteri
        (fun i (a, b) ->
          if a <> b then
            Alcotest.failf "%s: event %d differs:\n  reference %s\n  hub       %s"
              what i a b)
        (List.combine ev' ev);
      (* the run must reach the paths the index can get wrong: timers
         firing on their own (checkpointed sends, loss verdicts) *)
      let has kind =
        let tag = Printf.sprintf "{\"event\":\"%s\"" kind in
        List.exists (String.starts_with ~prefix:tag) ev
      in
      List.iter
        (fun kind ->
          if not (has kind) then Alcotest.failf "%s: no %s event" what kind)
        ([ "checkpoint"; "peer_up"; "estimate" ]
        @ if loss > 0. then [ "retransmit" ] else []))
    (List.concat_map
       (fun k ->
         List.concat_map
           (fun cohort -> List.map (fun loss -> (k, cohort, loss)) [ 0.; 0.1 ])
           [ 1; 3 ])
       [ 1; 5; 17 ])

(* --- cohort sharding -------------------------------------------------- *)

let test_cohort_partition () =
  let spec = star_spec ~nodes:11 in
  let fab = Loopback.fabric ~delay_lo:(ms 1) ~delay_hi:(ms 2) () in
  let ep = Loopback.endpoint fab ~id:0 () in
  let cfg0 = mk_cfg ~spec ~me:0 ~heartbeat:q_one in
  let mk ~idx:_ ~members =
    Ok (Session.create ~peers:members cfg0 ~now:Q.zero)
  in
  let hub =
    match
      Swarm.Lhub.create ~net:ep ~spec ~cohort_size:4 ~mk_session:mk ()
    with
    | Ok h -> h
    | Error m -> Alcotest.failf "create: %s" m
  in
  Alcotest.(check int) "cohorts" 3 (Swarm.Lhub.cohorts hub);
  Alcotest.(check int) "clients" 10 (Swarm.Lhub.clients hub);
  Alcotest.(check (list int)) "cohort 0" [ 1; 2; 3; 4 ]
    (Swarm.Lhub.members hub 0);
  Alcotest.(check (list int)) "cohort 1" [ 5; 6; 7; 8 ]
    (Swarm.Lhub.members hub 1);
  Alcotest.(check (list int)) "cohort 2" [ 9; 10 ] (Swarm.Lhub.members hub 2);
  (* the cohort sessions see exactly their members *)
  Alcotest.(check (list int)) "session 1 peers" [ 5; 6; 7; 8 ]
    (Session.peer_ids (Swarm.Lhub.session hub 1));
  Alcotest.(check bool) "sharded digests match a whole node's" true
    (Session.config_digest cfg0
    = Session.config_digest (mk_cfg ~spec ~me:0 ~heartbeat:q_one))

(* a session handed out by [Hub.session] and mutated is picked up by the
   next [next_deadline], before any poll has run *)
let test_deadline_sees_handed_out_session () =
  let spec = star_spec ~nodes:5 in
  let fab = Loopback.fabric ~delay_lo:(ms 1) ~delay_hi:(ms 2) () in
  let ep = Loopback.endpoint fab ~id:0 () in
  let cfg0 = mk_cfg ~spec ~me:0 ~heartbeat:q_one in
  let hub =
    match
      Swarm.Lhub.create ~net:ep ~spec ~cohort_size:2
        ~mk_session:(fun ~idx:_ ~members ->
          Ok (Session.create ~peers:members cfg0 ~now:Q.zero))
        ()
    with
    | Ok h -> h
    | Error m -> Alcotest.failf "create: %s" m
  in
  let dl = Alcotest.testable (Fmt.of_to_string (function
      | None -> "none" | Some d -> Q.to_string d)) (Option.equal Q.equal)
  in
  Alcotest.check dl "idle hub" None (Swarm.Lhub.next_deadline hub);
  let s = Swarm.Lhub.session hub 1 in
  Session.peer_reachable s ~peer:3 ~now:(ms 700);
  Alcotest.check dl "announce due" (Some (ms 700))
    (Swarm.Lhub.next_deadline hub);
  Swarm.Lhub.poll hub ~max_wait:Q.zero;
  let s = Swarm.Lhub.session hub 0 in
  Session.peer_reachable s ~peer:2 ~now:(ms 300);
  Alcotest.check dl "earlier cohort wins" (Some (ms 300))
    (Swarm.Lhub.next_deadline hub)

let test_peers_subset_validated () =
  let spec = star_spec ~nodes:4 in
  let cfg = mk_cfg ~spec ~me:0 ~heartbeat:q_one in
  (match Session.create ~peers:[ 1; 7 ] cfg ~now:Q.zero with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-neighbor subset accepted");
  let s = Session.create ~peers:[ 2 ] cfg ~now:Q.zero in
  Alcotest.(check (list int)) "subset peers" [ 2 ] (Session.peer_ids s);
  Alcotest.(check bool) "non-member not a peer" false (Session.is_peer s 1)

(* --- batching / coalescing accounting -------------------------------- *)

(* a tickful of same-destination frames must leave in one flush and be
   counted; frames to distinct clients must not be *)
let test_coalescing_accounting () =
  let clients =
    [
      { g = 1; offset = Q.zero; rate = Q.one };
      { g = 2; offset = Q.zero; rate = Q.one };
    ]
  in
  let spec = star_spec ~nodes:3 in
  let fab = Loopback.fabric ~seed:3 ~delay_lo:(ms 5) ~delay_hi:(ms 5) () in
  let hub_ep = Loopback.endpoint fab ~id:0 () in
  let cfg0 = mk_cfg ~spec ~me:0 ~heartbeat:q_one in
  let hub =
    match
      Swarm.Lhub.create ~net:hub_ep ~spec ~cohort_size:2
        ~mk_session:(fun ~idx:_ ~members ->
          Ok (Session.create ~peers:members cfg0 ~now:Q.zero))
        ()
    with
    | Ok h -> h
    | Error m -> Alcotest.failf "create: %s" m
  in
  let mk_client cc =
    let ep = Loopback.endpoint fab ~id:cc.g () in
    let session =
      Session.create (mk_cfg ~spec ~me:cc.g ~heartbeat:q_one) ~now:Q.zero
    in
    let loop = Loopback.L.create ~net:ep ~session () in
    Loopback.L.learn loop ~peer:0 0;
    (session, loop)
  in
  let cls = List.map mk_client clients in
  let drivers =
    {
      Loopback.poll = (fun () -> Swarm.Lhub.poll hub ~max_wait:Q.zero);
      next_vt = (fun () -> Swarm.Lhub.next_deadline hub);
      addr = Some 0;
    }
    :: List.map (fun (_, loop) -> Loopback.driver_of_loop loop) cls
  in
  let script =
    [
      ( Q.of_int 3,
        fun () ->
          (* two data frames to client 1 queued in the same tick: the
             second must share the flush *)
          let s = Swarm.Lhub.session hub 0 in
          Session.send_data s ~now:(Loopback.vnow fab) ~dst:1;
          Session.send_data s ~now:(Loopback.vnow fab) ~dst:1 );
    ]
  in
  Loopback.run_drivers fab ~drivers ~until:(Q.of_int 5) ~script ();
  let st = Swarm.Lhub.stats hub in
  Alcotest.(check int) "both clients up" 2 st.Hub.established;
  if st.Hub.coalesced < 1 then
    Alcotest.failf "no coalescing counted (stats: frames=%d coalesced=%d)"
      st.Hub.frames st.Hub.coalesced;
  if st.Hub.frames < 4 then
    Alcotest.failf "hub handled too few frames: %d" st.Hub.frames;
  (* the fixed delay lands both clients' frames at the same virtual
     instant, so the second one of each pair rides the burst drain *)
  if st.Hub.batched < 1 then
    Alcotest.failf "no batched frames (frames=%d)" st.Hub.frames

(* duplicate hellos: a client that re-announces (its first hello_ack
   was still in flight) must stay a single established member with a
   single peer-up, in whichever cohort owns it *)
let test_duplicate_hellos () =
  let spec = star_spec ~nodes:3 in
  let fab = Loopback.fabric ~seed:5 ~delay_lo:(ms 40) ~delay_hi:(ms 40) () in
  let hub_ep = Loopback.endpoint fab ~id:0 () in
  let mk_cfg ~spec ~me ~heartbeat =
    { (mk_cfg ~spec ~me ~heartbeat) with Session.announce_base = ms 15 }
  in
  let cfg0 = mk_cfg ~spec ~me:0 ~heartbeat:q_one in
  let ups = ref [] in
  let sink =
    Trace.callback (function
      | Trace.Peer_up { peer; _ } -> ups := peer :: !ups
      | _ -> ())
  in
  let hub =
    match
      Swarm.Lhub.create ~sink ~net:hub_ep ~spec ~cohort_size:1
        ~mk_session:(fun ~idx:_ ~members ->
          Ok (Session.create ~sink ~peers:members cfg0 ~now:Q.zero))
        ()
    with
    | Ok h -> h
    | Error m -> Alcotest.failf "create: %s" m
  in
  (* announce_base is 15 ms and the round trip is 80 ms: both clients
     send further hellos before the first hello_ack can possibly
     arrive *)
  let cls =
    List.map
      (fun g ->
        let ep = Loopback.endpoint fab ~id:g () in
        let session =
          Session.create (mk_cfg ~spec ~me:g ~heartbeat:q_one) ~now:Q.zero
        in
        let loop = Loopback.L.create ~net:ep ~session () in
        Loopback.L.learn loop ~peer:0 0;
        (session, loop))
      [ 1; 2 ]
  in
  let drivers =
    {
      Loopback.poll = (fun () -> Swarm.Lhub.poll hub ~max_wait:Q.zero);
      next_vt = (fun () -> Swarm.Lhub.next_deadline hub);
      addr = Some 0;
    }
    :: List.map (fun (_, loop) -> Loopback.driver_of_loop loop) cls
  in
  Loopback.run_drivers fab ~drivers ~until:(Q.of_int 4) ();
  let st = Swarm.Lhub.stats hub in
  Alcotest.(check int) "both established" 2 st.Hub.established;
  (* both clients came up on the hub side, and no phantom peers did *)
  Alcotest.(check (list int)) "hub-side ups" [ 1; 2 ]
    (List.sort_uniq compare !ups)

(* the hub's running count of settled cohorts must agree with a fold of
   [Session.all_peers_done] over the sessions it was built from (read
   through the [mk_session] capture: [Hub.session] would touch them) *)
let check_settled hub sessions =
  let fold = List.length (List.filter Session.all_peers_done sessions) in
  let count = Swarm.Lhub.settled_cohorts hub in
  if count <> fold then
    Alcotest.failf "settled cohorts: hub counts %d, sessions say %d" count
      fold;
  if Swarm.Lhub.all_clients_done hub <> (fold = List.length sessions) then
    Alcotest.fail "all_clients_done disagrees with the sessions"

(* churn mid-run: one client says bye and leaves; the hub must mark it
   down and keep serving the others *)
let test_client_churn () =
  let spec = star_spec ~nodes:4 in
  let fab = Loopback.fabric ~seed:9 ~delay_lo:(ms 5) ~delay_hi:(ms 5) () in
  let hub_ep = Loopback.endpoint fab ~id:0 () in
  let cfg0 = mk_cfg ~spec ~me:0 ~heartbeat:(Q.of_ints 1 2) in
  let sessions = ref [] in
  let hub =
    match
      Swarm.Lhub.create ~net:hub_ep ~spec ~cohort_size:2
        ~mk_session:(fun ~idx:_ ~members ->
          let s = Session.create ~peers:members cfg0 ~now:Q.zero in
          sessions := s :: !sessions;
          Ok s)
        ()
    with
    | Ok h -> h
    | Error m -> Alcotest.failf "create: %s" m
  in
  let cls =
    List.map
      (fun g ->
        let ep = Loopback.endpoint fab ~id:g () in
        let session =
          Session.create
            (mk_cfg ~spec ~me:g ~heartbeat:(Q.of_ints 1 2))
            ~now:Q.zero
        in
        let loop = Loopback.L.create ~net:ep ~session () in
        Loopback.L.learn loop ~peer:0 0;
        (g, ep, session, loop))
      [ 1; 2; 3 ]
  in
  let drivers =
    {
      Loopback.poll =
        (fun () ->
          Swarm.Lhub.poll hub ~max_wait:Q.zero;
          check_settled hub !sessions);
      next_vt = (fun () -> Swarm.Lhub.next_deadline hub);
      addr = Some 0;
    }
    :: List.map (fun (_, _, _, loop) -> Loopback.driver_of_loop loop) cls
  in
  let script =
    [
      ( Q.of_int 4,
        fun () ->
          let _, ep, session, _ =
            List.find (fun (g, _, _, _) -> g = 2) cls
          in
          Session.stop session ~now:(Loopback.Net.now ep) );
    ]
  in
  Loopback.run_drivers fab ~drivers ~until:(Q.of_int 8) ~script ();
  let st = Swarm.Lhub.stats hub in
  Alcotest.(check int) "two still up" 2 st.Hub.established;
  Alcotest.(check bool) "client 2 down on its cohort" false
    (Session.established (Swarm.Lhub.session hub 0) 2);
  List.iter
    (fun (g, ep, session, _) ->
      if g <> 2 then begin
        let est = Session.sample session ~now:(Loopback.Net.now ep) () in
        (match Interval.width est with
        | Ext.Fin _ -> ()
        | Ext.Inf -> Alcotest.failf "client %d never converged" g);
        if not (Interval.mem (Loopback.vnow fab) est) then
          Alcotest.failf "client %d unsound after churn" g
      end)
    cls

(* every client leaves: the settled count climbs cohort by cohort to the
   total, and [all_clients_done] flips exactly when the last one goes *)
let test_all_clients_done () =
  let spec = star_spec ~nodes:6 in
  let fab = Loopback.fabric ~seed:4 ~delay_lo:(ms 3) ~delay_hi:(ms 9) () in
  let hub_ep = Loopback.endpoint fab ~id:0 () in
  let cfg0 = mk_cfg ~spec ~me:0 ~heartbeat:(Q.of_ints 1 2) in
  let sessions = ref [] in
  let hub =
    match
      Swarm.Lhub.create ~net:hub_ep ~spec ~cohort_size:2
        ~mk_session:(fun ~idx:_ ~members ->
          let s = Session.create ~peers:members cfg0 ~now:Q.zero in
          sessions := s :: !sessions;
          Ok s)
        ()
    with
    | Ok h -> h
    | Error m -> Alcotest.failf "create: %s" m
  in
  let cls =
    List.init 5 (fun i ->
        let g = i + 1 in
        let ep = Loopback.endpoint fab ~id:g () in
        let session =
          Session.create
            (mk_cfg ~spec ~me:g ~heartbeat:(Q.of_ints 1 2))
            ~now:Q.zero
        in
        let loop = Loopback.L.create ~net:ep ~session () in
        Loopback.L.learn loop ~peer:0 0;
        (ep, session, loop))
  in
  let seen = ref [] in
  let drivers =
    {
      Loopback.poll =
        (fun () ->
          Swarm.Lhub.poll hub ~max_wait:Q.zero;
          check_settled hub !sessions;
          let c = Swarm.Lhub.settled_cohorts hub in
          if not (List.mem c !seen) then seen := c :: !seen);
      next_vt = (fun () -> Swarm.Lhub.next_deadline hub);
      addr = Some 0;
    }
    :: List.map (fun (_, _, loop) -> Loopback.driver_of_loop loop) cls
  in
  (* clients leave one at a time, a second apart *)
  let script =
    List.mapi
      (fun i (ep, session, _) ->
        ( Q.of_int (2 + i),
          fun () -> Session.stop session ~now:(Loopback.Net.now ep) ))
      cls
  in
  Loopback.run_drivers fab ~drivers ~until:(Q.of_int 8) ~script ();
  Alcotest.(check bool) "all clients done" true
    (Swarm.Lhub.all_clients_done hub);
  Alcotest.(check (list int)) "settled counts seen" [ 0; 1; 2; 3 ]
    (List.sort compare !seen)

(* --- swarm ------------------------------------------------------------ *)

let test_swarm_loopback_converges () =
  let r =
    Swarm.run_loopback ~seed:7 ~clients:40 ~cohort:8
      ~duration:(Q.of_int 10) ()
  in
  Alcotest.(check int) "all converged" 40 r.Swarm.converged;
  Alcotest.(check int) "all sound" 40 r.Swarm.sound;
  Alcotest.(check int) "all established" 40 r.Swarm.established;
  let st = Option.get r.Swarm.hub in
  if st.Hub.frames < 40 * 3 then
    Alcotest.failf "suspiciously few hub frames: %d" st.Hub.frames;
  if Float.is_nan (Swarm.p_width r 99.) then Alcotest.fail "no p99 width"

let test_swarm_deterministic () =
  let run () =
    Swarm.run_loopback ~seed:11 ~clients:12 ~cohort:3
      ~duration:(Q.of_int 6) ()
  in
  let a = run () and b = run () in
  Alcotest.(check int) "converged" a.Swarm.converged b.Swarm.converged;
  Alcotest.(check (array (float 0.)))
    "widths identical" a.Swarm.widths b.Swarm.widths;
  Alcotest.(check int) "frames identical"
    (Option.get a.Swarm.hub).Hub.frames (Option.get b.Swarm.hub).Hub.frames

(* --- Udp burst drain -------------------------------------------------- *)

(* the EWOULDBLOCK fix: zero-timeout receives drain an entire kernel
   burst without blocking, and report emptiness as None *)
let test_udp_burst_drain () =
  let a = Udp.create ~port:0 () in
  let b = Udp.create ~port:0 () in
  let dst = Udp.loopback (Udp.port b) in
  for i = 1 to 5 do
    Udp.send a dst (Printf.sprintf "datagram-%d" i)
  done;
  let buf = Bytes.create 256 in
  let deadline = Unix.gettimeofday () +. 2.0 in
  let rec collect n =
    if n >= 5 || Unix.gettimeofday () > deadline then n
    else
      match Udp.recv b ~buf ~timeout:(Q.of_ints 1 10) with
      | None -> collect n
      | Some (_, _) ->
        (* drain the rest of the burst without blocking *)
        let rec drain n =
          match Udp.recv b ~buf ~timeout:Q.zero with
          | Some _ -> drain (n + 1)
          | None -> n
        in
        collect (drain (n + 1))
  in
  let got = collect 0 in
  Alcotest.(check int) "all datagrams received" 5 got;
  (* an empty queue with a zero timeout must return immediately *)
  let t0 = Unix.gettimeofday () in
  (match Udp.recv b ~buf ~timeout:Q.zero with
  | None -> ()
  | Some _ -> Alcotest.fail "phantom datagram");
  if Unix.gettimeofday () -. t0 > 0.5 then
    Alcotest.fail "zero-timeout recv blocked";
  Udp.close a;
  Udp.close b

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "hub"
    [
      ( "equivalence",
        [
          Alcotest.test_case "hub == private pairs (fixed)" `Quick
            test_hub_equals_pairs;
          qt prop_hub_equals_pairs;
          Alcotest.test_case "indexed hub == reference hub" `Quick
            test_hub_matches_reference;
        ] );
      ( "sharding",
        [
          Alcotest.test_case "cohort partition" `Quick test_cohort_partition;
          Alcotest.test_case "peer subset validated" `Quick
            test_peers_subset_validated;
          Alcotest.test_case "deadline sees a handed-out session" `Quick
            test_deadline_sees_handed_out_session;
        ] );
      ( "batching",
        [
          Alcotest.test_case "coalescing accounted" `Quick
            test_coalescing_accounting;
          Alcotest.test_case "duplicate hellos" `Quick test_duplicate_hellos;
          Alcotest.test_case "client churn mid-run" `Quick test_client_churn;
          Alcotest.test_case "all clients done" `Quick test_all_clients_done;
        ] );
      ( "swarm",
        [
          Alcotest.test_case "loopback swarm converges" `Quick
            test_swarm_loopback_converges;
          Alcotest.test_case "deterministic under seed" `Quick
            test_swarm_deterministic;
        ] );
      ( "udp",
        [
          Alcotest.test_case "burst drain until EWOULDBLOCK" `Quick
            test_udp_burst_drain;
        ] );
    ]
