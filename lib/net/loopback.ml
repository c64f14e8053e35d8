type packet = { at : Q.t; seq : int; src : int; dst : int; bytes : string }

(* The fabric's delivery schedule: a {!Deadline_index.Heap} over
   (at, seq) keyed by destination.  Entries are never updated in place —
   consumption makes them stale and they are discarded lazily when popped
   (an entry is live iff its packet is still the head of its destination
   queue; both structures share the (at, seq) order, so the check is one
   head comparison). *)
module H = Deadline_index.Heap

type fabric = {
  rng : Rng.t;
  loss : float;
  delay_lo : Q.t;
  delay_hi : Q.t;
  mutable vnow : Q.t;
  (* per-destination pending packets, each sorted by (at, seq); recv is
     a head pop instead of a scan of everyone's traffic *)
  queues : (int, packet list) Hashtbl.t;
  mutable sched : H.t;
  mutable next_seq : int;
  mutable delivered : int;
  mutable dropped : int;
}

type endpoint = { fab : fabric; id : int; offset : Q.t; rate : Q.t }

let fabric ?(seed = 11) ?(loss = 0.) ~delay_lo ~delay_hi () =
  if Q.sign delay_lo <= 0 then
    invalid_arg "Loopback.fabric: delay_lo must be positive";
  if Q.(delay_hi < delay_lo) then
    invalid_arg "Loopback.fabric: delay_hi < delay_lo";
  {
    rng = Rng.create seed;
    loss;
    delay_lo;
    delay_hi;
    vnow = Q.zero;
    queues = Hashtbl.create 64;
    sched = H.empty;
    next_seq = 0;
    delivered = 0;
    dropped = 0;
  }

let endpoint fab ~id ?(offset = Q.zero) ?(rate = Q.one) () =
  if Q.sign rate <= 0 then
    invalid_arg "Loopback.endpoint: rate must be positive";
  { fab; id; offset; rate }

let vnow fab = fab.vnow
let delivered fab = fab.delivered
let dropped fab = fab.dropped
let local_of_virtual ep vt = Q.add ep.offset (Q.mul ep.rate vt)
let virtual_of_local ep lt = Q.div (Q.sub lt ep.offset) ep.rate

let queue_head fab dst =
  match Hashtbl.find_opt fab.queues dst with
  | Some (p :: _) -> Some p
  | _ -> None

let queue_pop fab dst =
  match Hashtbl.find_opt fab.queues dst with
  | Some (p :: rest) ->
    Hashtbl.replace fab.queues dst rest;
    Some p
  | _ -> None

let insert_sorted fab p =
  let earlier q =
    Q.(q.at < p.at) || (Q.(q.at = p.at) && q.seq < p.seq)
  in
  let rec go = function
    | q :: rest when earlier q -> q :: go rest
    | rest -> p :: rest
  in
  let old = Option.value ~default:[] (Hashtbl.find_opt fab.queues p.dst) in
  Hashtbl.replace fab.queues p.dst (go old);
  fab.sched <- H.push fab.sched { H.at = p.at; seq = p.seq; key = p.dst }

(* drop stale heads (consumed or discarded packets); the surviving head
   is the fabric's next delivery *)
let rec sched_head fab =
  match H.top fab.sched with
  | None -> None
  | Some e -> (
    match queue_head fab e.H.key with
    | Some p when p.seq = e.H.seq -> Some e
    | _ ->
      fab.sched <- H.pop fab.sched;
      sched_head fab)

let sched_drop fab = fab.sched <- H.pop fab.sched

module Net = struct
  type t = endpoint
  type addr = int

  let equal_addr = Int.equal
  let string_of_addr = string_of_int
  let now ep = local_of_virtual ep ep.fab.vnow

  let send ep dst bytes =
    let fab = ep.fab in
    if fab.loss > 0. && Rng.bernoulli fab.rng ~p:fab.loss then
      fab.dropped <- fab.dropped + 1
    else begin
      let d =
        if Q.(fab.delay_lo = fab.delay_hi) then fab.delay_lo
        else Rng.q_between fab.rng fab.delay_lo fab.delay_hi
      in
      let p =
        {
          at = Q.add fab.vnow d;
          seq = fab.next_seq;
          src = ep.id;
          dst;
          bytes;
        }
      in
      fab.next_seq <- fab.next_seq + 1;
      insert_sorted fab p
    end

  (* non-blocking by design: time only moves in [run] *)
  let recv ep ~buf ~timeout:_ =
    let fab = ep.fab in
    match queue_head fab ep.id with
    | Some p when Q.(p.at <= fab.vnow) ->
      ignore (queue_pop fab ep.id);
      fab.delivered <- fab.delivered + 1;
      (* mirror the kernel: copy into the caller's buffer, truncating
         an oversized datagram (the checksum rejects it downstream) *)
      let len = min (String.length p.bytes) (Bytes.length buf) in
      Bytes.blit_string p.bytes 0 buf 0 len;
      Some (p.src, len)
    | _ -> None
end

module L = Loop.Make (Net)

let deliverable fab =
  match sched_head fab with
  | Some e -> Q.(e.H.at <= fab.vnow)
  | None -> false

(* The scheduler only needs three things from whatever it is driving: a
   non-blocking poll step, the next virtual-time deadline, and the
   endpoint address it receives on (so a thousand idle drivers are not
   polled for every datagram addressed to someone else; [addr = None]
   falls back to polling on every step).  A [Loop] is one such driver;
   the hub (many sessions behind one endpoint) is another. *)
type driver = {
  poll : unit -> unit;
  next_vt : unit -> Q.t option;
  addr : int option;
}

let driver_of_loop l =
  {
    poll = (fun () -> L.poll l ~max_wait:Q.zero);
    next_vt =
      (fun () ->
        match Session.next_deadline (L.session l) with
        | None -> None
        | Some d -> Some (virtual_of_local (L.net l) d));
    addr = Some (L.net l).id;
  }

let run_drivers fab ~drivers ~until ?(script = []) () =
  let drivers = Array.of_list drivers in
  let k = Array.length drivers in
  let by_addr = Hashtbl.create (max 16 k) in
  Array.iteri
    (fun i d -> Option.iter (fun a -> Hashtbl.replace by_addr a i) d.addr)
    drivers;
  (* cached next deadlines, in virtual time; refreshed only for drivers
     that were polled (their state is the only one that moved), so
     finding the earliest deadline — and the set of due drivers — never
     scans all K drivers *)
  let deadlines = Deadline_index.create k in
  let refresh i = Deadline_index.set deadlines i (drivers.(i).next_vt ()) in
  Array.iteri (fun i _ -> refresh i) drivers;
  let poll_all () =
    Array.iteri
      (fun i d ->
        d.poll ();
        refresh i)
      drivers
  in
  let script =
    ref (List.stable_sort (fun (a, _) (b, _) -> Q.compare a b) script)
  in
  (* script hooks can touch any session (forced data rounds, byes), so
     a fired hook invalidates every cached deadline: poll everyone *)
  let fire_due () =
    let fired = ref false in
    let rec go () =
      match !script with
      | (at, f) :: rest when Q.(at <= fab.vnow) ->
        script := rest;
        fired := true;
        f ();
        go ()
      | _ -> ()
    in
    go ();
    if !fired then poll_all ()
  in
  (* one instant: poll exactly the drivers with a due packet or a due
     deadline, in driver-index order (the order the old poll-everyone
     loop used, so the fabric's RNG stream is untouched by the targeted
     wakeups); repeat until the due set stops making progress *)
  let due = Array.make k false in
  let free_drivers =
    Array.to_list
      (Array.mapi (fun i d -> if d.addr = None then Some i else None) drivers)
    |> List.filter_map Fun.id
  in
  let step () =
    fire_due ();
    let rec drain () =
      let due_list = ref [] in
      let mark_due i =
        if not due.(i) then begin
          due.(i) <- true;
          due_list := i :: !due_list
        end
      in
      (* due deadlines: pop the drivers due at or before now (the
         polled drivers' refresh re-caches whatever deadline remains) *)
      Deadline_index.pop_due deadlines ~now:fab.vnow mark_due;
      (* mark the receiver of the due packet at the schedule head; a
         due packet for an address nobody polls is undeliverable —
         discard it so it cannot stall the schedule.  Only the head is
         visible without popping; packets to other destinations due at
         this same instant surface on the next drain round, once the
         head is consumed and its entry goes stale. *)
      let rec mark () =
        match sched_head fab with
        | Some e when Q.(e.H.at <= fab.vnow) -> (
          match Hashtbl.find_opt by_addr e.H.key with
          | Some i -> mark_due i
          | None ->
            ignore (queue_pop fab e.H.key);
            sched_drop fab;
            mark ())
        | _ -> ()
      in
      mark ();
      (* addressless drivers are always due: we cannot know their mail *)
      List.iter mark_due free_drivers;
      match !due_list with
      | [] -> ()
      | l ->
        let l = List.sort compare l in
        let d0 = fab.delivered in
        List.iter
          (fun i ->
            drivers.(i).poll ();
            refresh i)
          l;
        List.iter (fun i -> due.(i) <- false) l;
        (* progress = a delivery or a timer pushed past now; stop when
           neither can happen anymore *)
        let timers_pending =
          match Deadline_index.earliest deadlines with
          | Some at -> Q.(at <= fab.vnow)
          | None -> false
        in
        if fab.delivered > d0 || timers_pending then drain ()
        else if deliverable fab then begin
          (* a due packet survived a poll of its receiver: undeliverable
             in practice; drop it rather than spin *)
          match sched_head fab with
          | Some e ->
            ignore (queue_pop fab e.H.key);
            sched_drop fab
          | None -> ()
        end
    in
    drain ()
  in
  poll_all ();
  step ();
  let rec go () =
    if Q.(fab.vnow < until) then begin
      let cands = [] in
      let cands =
        match sched_head fab with Some e -> e.H.at :: cands | None -> cands
      in
      let cands =
        match !script with (at, _) :: _ -> at :: cands | [] -> cands
      in
      let cands =
        match Deadline_index.earliest deadlines with
        | Some a -> a :: cands
        | None -> cands
      in
      (* a step leaves every timer strictly in the future and every due
         packet/script entry consumed, so filtering keeps us moving *)
      match List.filter (fun a -> Q.(a > fab.vnow)) cands with
      | [] -> fab.vnow <- until
      | fut ->
        fab.vnow <- Q.min until (List.fold_left Q.min (List.hd fut) fut);
        step ();
        go ()
    end
  in
  go ();
  step ()

let run fab ~loops ~until ?script () =
  run_drivers fab ~drivers:(List.map driver_of_loop loops) ~until ?script ()
