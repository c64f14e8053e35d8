(* Hub workloads: an in-process [Hub] on the loopback fabric serving K
   NTP-pattern clients, one private [Session] per client (cohort 1).
   Open loop in virtual time: clients send on their own heartbeat
   schedule however fast the hub runs, so wall-clock numbers are
   service times, not queueing delay. *)

type cfg = {
  clients : int;
  loss : float;  (** fabric loss per datagram *)
  checkpoint : bool;  (** write-ahead [Fault.Store] checkpoint per hub session *)
  duration : Q.t;  (** virtual seconds *)
}

(* [clocksync swarm] loopback defaults, heartbeat 1 s *)
let drift_ppm = 500
let hi_ms = 50
let max_offset_ms = 250
let heartbeat = Q.one

(* client sampling cadence, virtual seconds: every sample forces one hub
   poll with nothing due (see [hook]), so once a second keeps them rare *)
let sample_every = Q.one

(* The timing wrapper around the hub's endpoint.  [Hub.Make] takes it
   as its NET, so every send and receive the hub makes passes here. *)
type net_counts = {
  mutable send_calls : int;
  mutable send_bytes : int;
  mutable recv_calls : int;
  mutable recv_hits : int;
}

let nc = { send_calls = 0; send_bytes = 0; recv_calls = 0; recv_hits = 0 }
let tracer : Tracer.t option ref = ref None

module Tnet = struct
  type t = Loopback.endpoint
  type addr = int

  let equal_addr = Loopback.Net.equal_addr
  let string_of_addr = Loopback.Net.string_of_addr
  let now = Loopback.Net.now

  let send ep dst bytes =
    nc.send_calls <- nc.send_calls + 1;
    nc.send_bytes <- nc.send_bytes + String.length bytes;
    match !tracer with
    | None -> Loopback.Net.send ep dst bytes
    | Some t -> Tracer.span t "net.send" (fun () -> Loopback.Net.send ep dst bytes)

  let recv ep ~buf ~timeout =
    nc.recv_calls <- nc.recv_calls + 1;
    let r =
      match !tracer with
      | None -> Loopback.Net.recv ep ~buf ~timeout
      | Some t ->
        Tracer.span t "net.recv" (fun () -> Loopback.Net.recv ep ~buf ~timeout)
    in
    (match r with Some _ -> nc.recv_hits <- nc.recv_hits + 1 | None -> ());
    r
end

module H = Hub.Make (Tnet)

type client = {
  ep : Loopback.endpoint;
  session : Session.t;
  mutable samples : int;
  mutable uncontained : int;
  mutable last_width : float;
}

(* the generated inputs: each client's clock offset and rate *)
let client_clocks ~seed ~clients =
  let rng = Rng.create (seed lxor 0x5157) in
  Array.init clients (fun _ ->
      let offset = Scenario.ms (Rng.int rng (max_offset_ms + 1)) in
      let ppm = Rng.int rng ((2 * drift_ppm) + 1) - drift_ppm in
      (offset, Q.add Q.one (Q.of_ints ppm 1_000_000)))

let run cfg ~seed ~tracer:tr ~ckpt_dir =
  tracer := tr;
  nc.send_calls <- 0;
  nc.send_bytes <- 0;
  nc.recv_calls <- 0;
  nc.recv_hits <- 0;
  let wrap name f = Tracer.wrap tr name f in
  let retransmits = ref 0 and lost = ref 0 and drops = ref 0 in
  let sink, prof =
    match tr with
    | None -> (Trace.null, Prof.null)
    | Some t ->
      ( Trace.callback (function
          | Trace.Retransmit _ -> incr retransmits
          | Trace.Lost _ -> incr lost
          | Trace.Net_drop _ -> incr drops
          | _ -> ()),
        Tracer.prof t )
  in
  let ck_writes = ref 0 and ck_bytes = ref 0 in
  let stores = ref [] in
  let hub_polls = ref 0 and idle_polls = ref 0 and idle_s = ref 0. in
  let forced = ref false and forced_polls = ref 0 in
  let poll_s = ref 0. and deadline_calls = ref 0 and deadline_s = ref 0. in
  let frame_us = ref [] and pending = ref None in
  let meter = match tr with None -> Some (Calib.meter ()) | Some _ -> None in
  let setup () =
    wrap "setup" @@ fun () ->
    let nodes = cfg.clients + 1 in
    let spec = Swarm.star_spec ~nodes ~drift_ppm ~hi_ms in
    let fab =
      Loopback.fabric ~seed ~loss:cfg.loss ~delay_lo:(Scenario.ms 1)
        ~delay_hi:(Scenario.ms hi_ms) ()
    in
    let hub_ep = Loopback.endpoint fab ~id:0 () in
    let cfg0 =
      { (Session.default_config ~me:0 ~spec) with Session.heartbeat }
    in
    let mk_session ~idx ~members =
      let s =
        Session.create ~sink ~prof ~peers:members cfg0
          ~now:(Loopback.Net.now hub_ep)
      in
      if cfg.checkpoint then begin
        let store = Fault.Store.create ~dir:ckpt_dir ~node:idx in
        stores := store :: !stores;
        Session.set_checkpoint s (fun blob ->
            incr ck_writes;
            ck_bytes := !ck_bytes + String.length blob;
            wrap "checkpoint.store" (fun () -> Fault.Store.save store blob))
      end;
      Ok s
    in
    let hub =
      match
        H.create ~sink ~net:hub_ep ~spec ~cohort_size:1 ~mk_session ()
      with
      | Ok h -> h
      | Error m -> failwith m
    in
    let clients =
      Array.mapi
        (fun i (offset, rate) ->
          let g = i + 1 in
          let ep = Loopback.endpoint fab ~id:g ~offset ~rate () in
          let cfg = { (Session.default_config ~me:g ~spec) with Session.heartbeat } in
          let session = Session.create ~sink ~prof cfg ~now:(Loopback.Net.now ep) in
          { ep; session; samples = 0; uncontained = 0; last_width = infinity })
        (client_clocks ~seed ~clients:cfg.clients)
    in
    let client_driver c =
      let loop = Loopback.L.create ~net:c.ep ~session:c.session () in
      Loopback.L.learn loop ~peer:0 0;
      let d = Loopback.driver_of_loop loop in
      match tr with
      | None -> d
      | Some t ->
        {
          d with
          Loopback.poll = (fun () -> Tracer.span t "client.poll" d.Loopback.poll);
          next_vt = (fun () -> Tracer.span t "client.deadline" d.Loopback.next_vt);
        }
    in
    (* the hub runs offset 0 / rate 1: its local time is virtual time.
       Each poll is timed with the next_deadline refresh the scheduler
       makes right after it; together they are the hub's busy time, in
       CPU time so that the host's pauses do not count *)
    let hub_driver =
      {
        Loopback.poll =
          (fun () ->
            Option.iter (fun m -> ignore (Calib.tick m)) meter;
            let h0 = nc.recv_hits in
            let t0 = Tracer.cpu_now () in
            wrap "hub.poll" (fun () -> H.poll hub ~max_wait:Q.zero);
            let d = Tracer.cpu_now () -. t0 in
            let frames = nc.recv_hits - h0 in
            incr hub_polls;
            poll_s := !poll_s +. d;
            if frames = 0 then begin
              incr idle_polls;
              idle_s := !idle_s +. d
            end
            else pending := Some (frames, d);
            if !forced then begin
              incr forced_polls;
              forced := false
            end);
        next_vt =
          (fun () ->
            let t0 = Tracer.cpu_now () in
            let r = wrap "hub.deadline" (fun () -> H.next_deadline hub) in
            let d = Tracer.cpu_now () -. t0 in
            incr deadline_calls;
            deadline_s := !deadline_s +. d;
            (match !pending with
            | Some (frames, pd) ->
              frame_us := ((pd +. d) *. 1e6 /. float_of_int frames) :: !frame_us;
              pending := None
            | None -> ());
            r);
        addr = Some 0;
      }
    in
    (fab, hub, clients, hub_driver :: Array.to_list (Array.map client_driver clients))
  in
  let cleanup () =
    List.iter Fault.Store.wipe !stores;
    if cfg.checkpoint then Sys.rmdir ckpt_dir
  in
  let t_start = Tracer.now () and c_start = Tracer.cpu_now () in
  let body () =
    let fab, hub, clients, drivers = setup () in
    let sample_all () =
      let truth = Loopback.vnow fab in
      Array.iter
        (fun c ->
          let now = Loopback.Net.now c.ep in
          let est = wrap "session.sample" (fun () -> Session.sample c.session ~now ~truth ()) in
          let w = Episode.width_ms est in
          c.samples <- c.samples + 1;
          if not (Interval.mem truth est) then c.uncontained <- c.uncontained + 1;
          c.last_width <- w)
        clients
    in
    (* a fired script hook makes the scheduler poll every driver; the
       hub poll it forces is counted apart *)
    let hook () =
      forced := true;
      wrap "bench.sample" sample_all
    in
    let script =
      let n = int_of_float (Q.to_float (Q.div cfg.duration sample_every)) in
      List.init n (fun k -> (Q.mul_int sample_every (k + 1), hook))
    in
    let t_setup = Tracer.now () in
    wrap "fabric.run" (fun () ->
        Loopback.run_drivers fab ~drivers ~until:cfg.duration ~script ());
    forced := false;
    wrap "bench.sample" sample_all;
    (t_setup, fab, hub, clients)
  in
  let t_setup, fab, hub, clients = wrap "episode" body in
  let t_end = Tracer.now () and c_end = Tracer.cpu_now () in
  let slices_s, slices_cpu =
    match meter with Some m -> (m.Calib.wall_s, m.Calib.cpu_s) | None -> (0., 0.)
  in
  cleanup ();
  let st = H.stats hub in
  let csas =
    List.init (H.cohorts hub) (fun i -> Session.csa (H.session hub i))
    @ Array.to_list (Array.map (fun c -> Session.csa c.session) clients)
  in
  let sum f = List.fold_left (fun a c -> a + f c) 0 csas in
  let inserts = sum Csa.events_processed in
  let violations =
    List.concat
      (List.mapi
         (fun i c ->
           let id = i + 1 in
           (if Session.established c.session 0 then []
            else [ Printf.sprintf "client %d not established" id ])
           @ (if Float.is_finite c.last_width then []
              else [ Printf.sprintf "client %d not converged" id ])
           @
           if c.uncontained = 0 then []
           else [ Printf.sprintf "client %d: %d samples missed true time" id c.uncontained ])
         (Array.to_list clients))
  in
  let violations =
    if nc.recv_hits = st.Hub.frames then violations
    else
      Printf.sprintf "hub received %d datagrams but handled %d frames" nc.recv_hits
        st.Hub.frames
      :: violations
  in
  let widths = Array.map (fun c -> c.last_width) clients in
  let fi = float_of_int in
  {
    Episode.setup_s = t_setup -. t_start;
    wall_s = t_end -. t_start -. slices_s;
    cpu_s = c_end -. c_start -. slices_cpu;
    msgs = Loopback.delivered fab;
    busy_s = !poll_s +. !deadline_s;
    frames = nc.recv_hits;
    frame_us = Array.of_list !frame_us;
    samples = Array.fold_left (fun a c -> a + c.samples) 0 clients;
    uncontained = Array.fold_left (fun a c -> a + c.uncontained) 0 clients;
    widths_ms = widths;
    violations;
    det =
      [
        ("hub.frames", string_of_int st.Hub.frames);
        ("fabric.delivered", string_of_int (Loopback.delivered fab));
        ("agdp.insert_calls", string_of_int inserts);
        ("widths", Episode.widths_key widths);
      ];
    layer =
      [
        ("hub.poll_s", !poll_s);
        ("hub.polls", fi !hub_polls);
        ("hub.idle_polls", fi !idle_polls);
        ("hub.idle_poll_s", !idle_s);
        ("hub.forced_polls", fi !forced_polls);
        ("hub.deadline_calls", fi !deadline_calls);
        ("hub.deadline_s", !deadline_s);
        ("hub.frames", fi st.Hub.frames);
        ("hub.batched", fi st.Hub.batched);
        ("hub.coalesced", fi st.Hub.coalesced);
        ("fabric.delivered", fi (Loopback.delivered fab));
        ("fabric.dropped", fi (Loopback.dropped fab));
        ("net.send_calls", fi nc.send_calls);
        ("net.send_bytes", fi nc.send_bytes);
        ("net.recv_calls", fi nc.recv_calls);
        ("net.recv_hits", fi nc.recv_hits);
        ("agdp.insert_calls", fi inserts);
        ("agdp.relaxations", fi (sum Csa.oracle_relaxations));
        ("agdp.live_peak", fi (List.fold_left (fun a c -> max a (Csa.peak_live_count c)) 0 csas));
        ("checkpoint.writes", fi !ck_writes);
        ("checkpoint.bytes", fi !ck_bytes);
        ("session.retransmits", fi !retransmits);
        ("session.lost", fi !lost);
        ("session.drops", fi !drops);
      ];
    scale = (match meter with Some m -> Calib.scale m | None -> nan);
  }
