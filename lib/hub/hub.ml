(* functor-independent so reports can carry hub stats regardless of the
   underlying NET *)
type stats = {
  clients : int;
  established : int;
  frames : int;
  batched : int;
  coalesced : int;
}

module Make (N : Net_intf.NET) = struct
  type cohort = {
    idx : int;
    members : Event.proc list;
    session : Session.t;
    (* cumulative, per cohort; hub totals are the sums *)
    mutable frames : int;
    mutable batched : int;
    mutable coalesced : int;
    (* [Session.all_peers_done], as of the last re-cache *)
    mutable settled : bool;
    (* member of the hub's touched set *)
    mutable is_touched : bool;
  }

  type t = {
    net : N.t;
    sink : Trace.sink;
    prof : Prof.t;
    n : int;  (* spec size: clients are 1..n-1 *)
    cohort_size : int;
    cohorts : cohort array;
    (* client id -> last source address; learned from incoming frames
       (clients bind ephemeral ports), consulted at flush *)
    routes : (Event.proc, N.addr) Hashtbl.t;
    (* the one receive buffer for the one socket: each datagram is
       decoded in place and fully handled before the next receive
       overwrites it *)
    rbuf : Bytes.t;
    burst : int;
    (* cached [Session.next_deadline] per cohort.  Valid for every
       cohort outside [touched]: session state moves only when a
       cohort is due, handles a frame, is stopped or is handed out, and
       each of those touches it *)
    deadlines : Deadline_index.t;
    (* cohorts to tick, flush and re-cache on the next poll; every
       cohort starts touched, so the first poll builds the index *)
    mutable touched : int list;
    (* cohorts whose [settled] is true *)
    mutable settled_count : int;
  }

  let cohort_count ~n ~cohort_size = (n - 1 + cohort_size - 1) / cohort_size

  let members_of ~n ~cohort_size idx =
    let lo = 1 + (idx * cohort_size) in
    let hi = min (n - 1) (lo + cohort_size - 1) in
    List.init (hi - lo + 1) (fun k -> lo + k)

  let create ?(sink = Trace.null) ?(prof = Prof.null) ?(burst = 256) ~net
      ~spec ~cohort_size ~mk_session () =
    if cohort_size < 1 then
      invalid_arg "Hub.create: cohort size must be >= 1";
    if burst < 1 then invalid_arg "Hub.create: burst must be >= 1";
    let n = System_spec.n spec in
    if n < 2 then invalid_arg "Hub.create: need at least one client";
    let ncoh = cohort_count ~n ~cohort_size in
    let rec build idx acc =
      if idx < 0 then Ok acc
      else
        let members = members_of ~n ~cohort_size idx in
        match mk_session ~idx ~members with
        | Error _ as e -> e
        | Ok session ->
          build (idx - 1)
            ({ idx; members; session; frames = 0; batched = 0;
               coalesced = 0; settled = false; is_touched = true }
            :: acc)
    in
    match build (ncoh - 1) [] with
    | Error m -> Error m
    | Ok cohorts ->
      Ok
        {
          net;
          sink;
          prof;
          n;
          cohort_size;
          cohorts = Array.of_list cohorts;
          routes = Hashtbl.create 64;
          rbuf = Bytes.create Frame.max_frame;
          burst;
          deadlines = Deadline_index.create ncoh;
          touched = List.init ncoh Fun.id;
          settled_count = 0;
        }

  let net t = t.net
  let cohorts t = Array.length t.cohorts
  let clients t = t.n - 1

  let touch t c =
    if not c.is_touched then begin
      c.is_touched <- true;
      t.touched <- c.idx :: t.touched
    end

  (* a caller holding the session may mutate it: pick it up next poll *)
  let session t idx =
    let c = t.cohorts.(idx) in
    touch t c;
    c.session

  let members t idx = t.cohorts.(idx).members

  let cohort_of t g =
    if g < 1 || g >= t.n then None
    else Some t.cohorts.((g - 1) / t.cohort_size)

  let ft now = Q.to_float now

  (* Send one cohort's outgoing queue: a drive tick's worth of acks and
     heartbeats to the same client leaves in a single flush rather than
     one flush per handled frame.  [coalesced] counts the frames beyond
     the first that shared their flush with an earlier frame to the
     same destination. *)
  let flush t c =
    let rec go seen = function
      | [] -> ()
      | (dst, bytes) :: rest ->
        (match Hashtbl.find_opt t.routes dst with
        | Some addr -> N.send t.net addr bytes
        | None ->
          (* the session only addresses reachable members, and
             reachability is only ever granted on receive, which
             records the route first — but dropping matches the
             datagram contract *)
          ());
        if List.mem dst seen then begin
          c.coalesced <- c.coalesced + 1;
          go seen rest
        end
        else go (dst :: seen) rest
    in
    go [] (Session.drain c.session)

  (* bring a cohort's cached deadline and done flag up to date *)
  let recache t c =
    Deadline_index.set t.deadlines c.idx (Session.next_deadline c.session);
    let settled = Session.all_peers_done c.session in
    if settled <> c.settled then begin
      c.settled <- settled;
      t.settled_count <- (t.settled_count + if settled then 1 else -1)
    end

  let recache_touched t =
    List.iter (fun i -> recache t t.cohorts.(i)) t.touched

  (* Tick (at [tick], when given), flush and re-cache every touched
     cohort, then empty the set.  Ascending cohort index, ticks before flushes: the
     order a pass over every cohort would reach them in.  Ticking a
     session that is not due is a no-op and flushing an empty queue
     sends nothing, so every send reaches the net in the same order as
     if all cohorts were visited. *)
  let settle ?tick t =
    let idx = List.sort Int.compare t.touched in
    t.touched <- [];
    let cs = List.map (fun i -> t.cohorts.(i)) idx in
    Option.iter
      (fun now -> List.iter (fun c -> Session.tick c.session ~now) cs)
      tick;
    List.iter (flush t) cs;
    List.iter
      (fun c ->
        c.is_touched <- false;
        recache t c)
      cs

  let handle_datagram t ~batched (addr, len) =
    let now = N.now t.net in
    match Frame.decode_sub t.rbuf ~pos:0 ~len with
    | Error e ->
      Trace.emit t.sink
        (Trace.Net_drop { t = ft now; reason = "frame: " ^ e })
    | Ok frame -> (
      let g = frame.Frame.sender in
      match cohort_of t g with
      | None ->
        Trace.emit t.sink
          (Trace.Net_drop
             { t = ft now; reason = Printf.sprintf "frame from non-client %d" g })
      | Some c ->
        c.frames <- c.frames + 1;
        if batched then c.batched <- c.batched + 1;
        (match Hashtbl.find_opt t.routes g with
        | Some a when N.equal_addr a addr -> ()
        | _ -> Hashtbl.replace t.routes g addr);
        touch t c;
        Session.peer_reachable c.session ~peer:g ~now;
        Session.handle c.session ~now ~bytes:len frame)

  let next_deadline t =
    recache_touched t;
    Deadline_index.earliest t.deadlines

  let poll t ~max_wait = Prof.span t.prof "hub_poll" @@ fun () ->
    let now = N.now t.net in
    Deadline_index.pop_due t.deadlines ~now (fun i -> touch t t.cohorts.(i));
    settle ~tick:now t;
    let timeout =
      match Deadline_index.earliest t.deadlines with
      | None -> max_wait
      | Some d -> Q.max Q.zero (Q.min max_wait (Q.sub d now))
    in
    (match N.recv t.net ~buf:t.rbuf ~timeout with
    | None -> ()
    | Some first ->
      handle_datagram t ~batched:false first;
      (* one readiness wakeup, whole kernel burst: keep receiving with
         a zero timeout until the queue is dry or the cap is hit *)
      let rec go k =
        if k < t.burst then
          match N.recv t.net ~buf:t.rbuf ~timeout:Q.zero with
          | None -> ()
          | Some d ->
            handle_datagram t ~batched:true d;
            go (k + 1)
      in
      go 1);
    settle t

  let established_in c =
    List.length (List.filter (Session.established c.session) c.members)

  let stats t =
    Array.fold_left
      (fun acc c ->
        {
          clients = acc.clients + List.length c.members;
          established = acc.established + established_in c;
          frames = acc.frames + c.frames;
          batched = acc.batched + c.batched;
          coalesced = acc.coalesced + c.coalesced;
        })
      { clients = 0; established = 0; frames = 0; batched = 0; coalesced = 0 }
      t.cohorts

  let emit_stats t ~now =
    Array.iter
      (fun c ->
        Trace.emit t.sink
          (Trace.Hub_cohort
             {
               t = ft now;
               cohort = c.idx;
               clients = List.length c.members;
               established = established_in c;
               frames = c.frames;
               batched = c.batched;
               coalesced = c.coalesced;
             }))
      t.cohorts

  let stop t ~now =
    Array.iter
      (fun c ->
        Session.stop c.session ~now;
        touch t c)
      t.cohorts;
    settle t

  let settled_cohorts t =
    recache_touched t;
    t.settled_count

  let all_clients_done t = settled_cohorts t = Array.length t.cohorts
end
