(* In-memory span recorder for the traced run.

   The benchmark opens a span (name, start, end, parent) around every
   call it makes into a layer.  The library's own [Prof] spans arrive as
   [Trace.Span] events carrying only a duration, at the moment the timed
   operation ends; the run is single-threaded, so the benchmark span
   open at that moment is exactly the caller, and the event is
   attributed to it.  Self time of a benchmark span is its duration
   minus its child spans and the library spans attributed to it. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

external thread_cpu_ns : unit -> (int64[@unboxed])
  = "perfbench_thread_cpu_ns" "perfbench_thread_cpu_ns_unboxed"
[@@noalloc]

(* seconds of CPU time this thread has used (see cputime_stubs.c) *)
let cpu_now () = Int64.to_float (thread_cpu_ns ()) *. 1e-9

type span = { id : int; name : string; t0 : float; t1 : float; parent : int }
type lib_span = { lname : string; dur : float; lparent : int }

type t = {
  mutable next_id : int;
  mutable stack : int list;
  mutable spans : span list;
  mutable lib : lib_span list;
  (* store time spent since the last [checkpoint_write] library span:
     the store call runs inside that span, so its time is taken out of
     the span to leave the encode part *)
  mutable store_pending : float;
}

let create () =
  { next_id = 0; stack = []; spans = []; lib = []; store_pending = 0. }

let top t = match t.stack with p :: _ -> p | [] -> -1

let span t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = top t in
  t.stack <- id :: t.stack;
  let t0 = now () in
  let close () =
    let t1 = now () in
    t.stack <- List.tl t.stack;
    t.spans <- { id; name; t0; t1; parent } :: t.spans;
    if name = "checkpoint.store" then
      t.store_pending <- t.store_pending +. (t1 -. t0)
  in
  match f () with
  | x ->
    close ();
    x
  | exception e ->
    close ();
    raise e

(* [f] only under a tracer; the untraced path is the bare call *)
let wrap tr name f = match tr with None -> f () | Some t -> span t name f

let lib_event t = function
  | Trace.Span { name; dur } ->
    let lname, dur =
      if name = "checkpoint_write" then begin
        let encode = dur -. t.store_pending in
        t.store_pending <- 0.;
        ("checkpoint.encode", encode)
      end
      else (name, dur)
    in
    t.lib <- { lname; dur; lparent = top t } :: t.lib
  | _ -> ()

let prof t = Prof.make ~now ~sink:(Trace.callback (lib_event t)) ()

(* Layer of a span name: the part before the first '.'.  Calls into the
   fabric's endpoint ([net.*]) are fabric time. *)
let layer name =
  match name with
  | "agdp_insert" | "agdp_kill" -> "agdp"
  | "codec_encode" | "codec_decode" -> "codec"
  | "checkpoint.encode" | "checkpoint.store" -> name
  | _ -> (
    match String.index_opt name '.' with
    | None -> name
    | Some i -> (
      match String.sub name 0 i with "net" -> "fabric" | l -> l))

let total_by_name t name =
  List.fold_left
    (fun (n, s) sp -> if sp.name = name then (n + 1, s +. (sp.t1 -. sp.t0)) else (n, s))
    (0, 0.) t.spans

let lib_durations t name =
  List.filter_map (fun l -> if l.lname = name then Some l.dur else None) t.lib

(* Per-layer self-time table under the span [root]: one row per layer
   plus ["unattributed"], the root's own self time (benchmark glue and
   the recorder's own cost between layer spans).  Rows sum to the
   root's duration by construction; a negative row would mean a child
   outlived its parent, which the benchmark reports as a failure. *)
let self_times t ~root =
  let n = t.next_id in
  let covered = Array.make n 0. in
  List.iter
    (fun sp -> if sp.parent >= 0 then covered.(sp.parent) <- covered.(sp.parent) +. (sp.t1 -. sp.t0))
    t.spans;
  List.iter
    (fun l -> if l.lparent >= 0 then covered.(l.lparent) <- covered.(l.lparent) +. l.dur)
    t.lib;
  let rows = Hashtbl.create 16 in
  let add k v =
    Hashtbl.replace rows k (v +. Option.value ~default:0. (Hashtbl.find_opt rows k))
  in
  List.iter
    (fun sp ->
      let self = sp.t1 -. sp.t0 -. covered.(sp.id) in
      add (if sp.id = root then "unattributed" else layer sp.name) self)
    t.spans;
  List.iter (fun l -> add (layer l.lname) l.dur) t.lib;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) rows []
  |> List.sort compare

(* every recorded span as one tab-separated line, parents by id *)
let dump t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "id\tname\tstart_s\tend_s\tdur_s\tparent\n";
      List.iter
        (fun sp ->
          Printf.fprintf oc "%d\t%s\t%.9f\t%.9f\t%.9f\t%d\n" sp.id sp.name sp.t0
            sp.t1 (sp.t1 -. sp.t0) sp.parent)
        (List.rev t.spans);
      (* library spans carry a duration only *)
      List.iter
        (fun l -> Printf.fprintf oc "-\t%s\t-\t-\t%.9f\t%d\n" l.lname l.dur l.lparent)
        (List.rev t.lib))
