type wire = ..

module type S = sig
  type t

  val name : string
  val create : System_spec.t -> me:Event.proc -> lt0:Q.t -> t

  val on_send :
    t -> dst:Event.proc -> msg:int -> lt:Q.t -> payload:Payload.t -> wire

  val on_recv :
    t ->
    src:Event.proc ->
    msg:int ->
    lt:Q.t ->
    payload:Payload.t ->
    wire ->
    unit

  val estimate_at : t -> lt:Q.t -> Interval.t
end

type algo = (module S)

let name (module A : S) = A.name

type wire +=
  | Payload_only  (** the drift-free strawman reads the CSA payload *)
  | Rtt of Rtt_estimator.wire
  | Flood of Ftsp.wire
  | Anchor of Marzullo.wire

let foreign name = invalid_arg ("Baseline." ^ name ^ ": foreign wire")

let driftfree ~window : algo =
  (module struct
    type t = Driftfree.t

    let name = Driftfree.name
    let create = Driftfree.create ~window ?recompute:None
    let estimate_at = Driftfree.estimate_at

    let on_send t ~dst:_ ~msg:_ ~lt:_ ~payload =
      Driftfree.on_send t ~payload;
      Payload_only

    let on_recv t ~src:_ ~msg ~lt ~payload _ =
      Driftfree.on_recv t ~msg ~lt ~payload
  end)

(* NTP and Cristian differ only in the estimator's acceptance policy *)
let rtt_algo name policy : algo =
  (module struct
    type t = Rtt_estimator.t

    let name = name
    let create = Rtt_estimator.create policy
    let estimate_at = Rtt_estimator.estimate_at

    let on_send t ~dst ~msg ~lt ~payload:_ =
      Rtt (Rtt_estimator.on_send t ~dst ~msg ~lt)

    let on_recv t ~src ~msg ~lt ~payload:_ = function
      | Rtt w -> Rtt_estimator.on_recv t ~src ~msg ~lt w
      | _ -> foreign name
  end)

let ntp = rtt_algo "ntp" Rtt_estimator.ntp_policy

let cristian ~rtt_threshold =
  rtt_algo "cristian" (Rtt_estimator.cristian_policy ~rtt_threshold)

module Ftsp_algo = struct
  type t = Ftsp.t

  let name = Ftsp.name
  let create = Ftsp.create
  let estimate_at = Ftsp.estimate_at

  let on_send t ~dst ~msg ~lt ~payload:_ =
    Flood (Ftsp.on_send t ~dst ~msg ~lt)

  let on_recv t ~src ~msg ~lt ~payload:_ = function
    | Flood w -> Ftsp.on_recv t ~src ~msg ~lt w
    | _ -> foreign name
end

let ftsp : algo = (module Ftsp_algo)

let marzullo : algo =
  (module struct
    type t = Marzullo.t

    let name = Marzullo.name
    let create = Marzullo.create
    let estimate_at = Marzullo.estimate_at

    let on_send t ~dst ~msg ~lt ~payload:_ =
      Anchor (Marzullo.on_send t ~dst ~msg ~lt)

    let on_recv t ~src ~msg ~lt ~payload:_ = function
      | Anchor w -> Marzullo.on_recv t ~src ~msg ~lt w
      | _ -> foreign name
  end)

let all =
  [
    driftfree ~window:(Q.of_int 30);
    ntp;
    cristian ~rtt_threshold:(Q.of_ints 50 1_000);
    ftsp;
    marzullo;
  ]

let select names = List.filter (fun a -> List.mem (name a) names) all

type node = Node : (module S with type t = 'a) * 'a -> node

let create (module A : S) spec ~me ~lt0 =
  Node ((module A), A.create spec ~me ~lt0)
