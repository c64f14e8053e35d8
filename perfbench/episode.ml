(* One run of a workload's fixed inputs, as the benchmark saw it. *)

type t = {
  setup_s : float;  (** wall time before the first poll or event *)
  wall_s : float;
      (** set-up, drive and final sampling, without the calibration
          slices *)
  cpu_s : float;
      (** CPU time of the thread over the same span as [wall_s]: the
          wall time less the host's pauses and the waits on the disk *)
  msgs : int;  (** messages delivered *)
  busy_s : float;
      (** frame-handler busy CPU time: hub [poll] + [next_deadline]
          calls, or the simulator's event loop after set-up *)
  frames : int;  (** frames the handler took in *)
  frame_us : float array;
      (** busy CPU microseconds per frame, one sample per handler step
          that took in at least one frame *)
  samples : int;  (** interval samples checked against true time *)
  uncontained : int;  (** samples whose interval missed true time *)
  widths_ms : float array;  (** final interval width per client *)
  violations : string list;  (** failed correctness checks *)
  det : (string * string) list;
      (** deterministic outputs of the seed; equal on every repetition
          and between the timed and the traced run *)
  layer : (string * float) list;  (** per-layer counters and times *)
  scale : float;
      (** reference seconds per measured second during the run (see
          Calib); nan for the traced run, which runs no slices *)
}

let width_ms est =
  match Interval.width est with
  | Ext.Fin w -> 1000. *. Q.to_float w
  | Ext.Inf -> infinity

let widths_key ws =
  String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") ws))
