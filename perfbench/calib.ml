(* Host-speed calibration.

   On a shared host the same code runs at different speeds from one
   stretch of seconds or minutes to the next (a busy neighbour on the
   same physical core, a lower clock), and no estimator over the runs
   of one invocation absorbs a slow stretch.  So while a run drives its
   workload, the benchmark interleaves short slices of a fixed reference
   kernel (one every [period_s] of wall time) and reports the run's
   timings in reference seconds: measured seconds times
   [nominal_s / mean slice CPU time].  A slice runs between two calls
   into the program, outside every timed call, and its wall time is
   taken out of the run's wall time.

   The kernel uses only the standard library and Zarith, never this
   repository's code, so a change to the program cannot move it.  It
   mixes the kinds of work the workloads do: balanced-tree and
   hash-table updates, sorting, short-lived allocation, rational
   arithmetic and byte buffers. *)

module IM = Map.Make (Int)

let slice () =
  let m = ref IM.empty in
  for i = 0 to 2_000 do
    m := IM.add ((i * 7919) land 0xffff) i !m
  done;
  let h = Hashtbl.create 256 in
  for i = 0 to 4_000 do
    Hashtbl.replace h ((i * 31) land 0x3ff) i
  done;
  let l = List.sort compare (List.init 2_000 (fun i -> (i * 104729) land 0xffff)) in
  let q = ref Q.zero and below = ref 0 in
  for i = 1 to 100 do
    let x = Q.of_ints ((i * 37) mod 1009) ((i mod 997) + 1) in
    q := if i land 15 = 0 then x else Q.add (Q.div !q (Q.of_int 3)) x;
    if Q.compare x !q < 0 then incr below
  done;
  let b = Buffer.create 256 in
  for i = 0 to 4_000 do
    Buffer.add_int32_le b (Int32.of_int i);
    if Buffer.length b > 4096 then Buffer.clear b
  done;
  IM.cardinal !m + Hashtbl.length h + List.length l + !below + Buffer.length b

(* a slice's CPU time on the reference host (2-vCPU VM, OCaml 5.1.1, dev
   profile), so that reference seconds read close to seconds there *)
let nominal_s = 0.002

let period_s = 0.1

type meter = {
  mutable due : float;  (** wall time the next slice is due *)
  mutable n : int;
  mutable cpu_s : float;  (** CPU time of the slices *)
  mutable wall_s : float;  (** wall time of the slices *)
}

let meter () = { due = Tracer.now () +. period_s; n = 0; cpu_s = 0.; wall_s = 0. }

let run_slice m t0 =
  let c0 = Tracer.cpu_now () in
  ignore (Sys.opaque_identity (slice ()));
  let c1 = Tracer.cpu_now () in
  let t1 = Tracer.now () in
  m.n <- m.n + 1;
  m.cpu_s <- m.cpu_s +. (c1 -. c0);
  m.wall_s <- m.wall_s +. (t1 -. t0);
  m.due <- t1 +. period_s

(* Run a slice if one is due; true if it ran.  Called between two calls
   into the program. *)
let tick m =
  let t = Tracer.now () in
  t >= m.due
  &&
  (run_slice m t;
   true)

(* reference seconds per measured second over the meter's slices; nan
   if none ran *)
let scale m = if m.n = 0 then nan else nominal_s /. (m.cpu_s /. float_of_int m.n)
