module Config = Rb_locking.Config
module Metrics = Rb_util.Metrics

type input = {
  schedule : Rb_sched.Schedule.t;
  allocation : Rb_hls.Allocation.t;
  profile : Rb_sim.Operands.t;
  k : Rb_sim.Kmatrix.t;
  config : Config.t;
  spec : Codesign.spec;
}

type output = { binding : Rb_hls.Binding.t; config : Config.t }

type t = Area | Codesign | Obf | Power

let all = [ Area; Codesign; Obf; Power ]

let name = function
  | Area -> "area"
  | Codesign -> "codesign"
  | Obf -> "obf"
  | Power -> "power"

let of_name s = List.find_opt (fun b -> name b = s) all

let description = function
  | Area -> "area-aware baseline: minimize registers/transfers [20]"
  | Codesign -> "binding-obfuscation co-design, P-time heuristic (Sec. V)"
  | Obf -> "obfuscation-aware binding for a fixed lock (Sec. IV)"
  | Power -> "power-aware baseline: minimize input switching [19]"

let run b (input : input) =
  match b with
  | Area ->
    { binding = Rb_hls.Area_binding.bind input.schedule input.allocation;
      config = input.config }
  | Codesign ->
    let solution = Codesign.heuristic input.k input.schedule input.allocation input.spec in
    { binding = solution.Codesign.binding; config = solution.Codesign.config }
  | Obf ->
    { binding = Obf_binding.bind input.k input.config input.schedule input.allocation;
      config = input.config }
  | Power ->
    { binding = Rb_hls.Power_binding.bind input.schedule input.allocation ~profile:input.profile;
      config = input.config }

(* Every binder reports under the "binder" scope: a deterministic
   invocation counter and a segregated wall-clock timer per name. *)
let meter b =
  ( Metrics.counter ~scope:"binder" (name b ^ "_binds"),
    Metrics.timer ~scope:"binder" (name b ^ "_bind") )

let area_meter = meter Area
let codesign_meter = meter Codesign
let obf_meter = meter Obf
let power_meter = meter Power

let bind b input =
  let calls, wall =
    match b with
    | Area -> area_meter
    | Codesign -> codesign_meter
    | Obf -> obf_meter
    | Power -> power_meter
  in
  Metrics.incr calls;
  Metrics.time wall (fun () -> run b input)

let ensure_registered () = ()
