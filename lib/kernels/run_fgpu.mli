(** Harness gluing a compiled kernel to the G-GPU simulator: buffer
    layout in global memory, parameter passing, launch, read-back —
    the OpenCL-runtime role of the paper's software stack. *)

type result = {
  stats : Ggpu_fgpu.Stats.t;
  mem : int array;
      (** global memory after the run, one native int per word in
          {!Ggpu_isa.I32} canonical form; read buffers through {!output} *)
  layout : (string * int * int) list;
      (** one (buffer name, word offset into [mem], length in words)
          entry per [args] buffer, in argument order *)
}

exception Setup_error of string

val run :
  ?config:Ggpu_fgpu.Config.t ->
  ?base_addr:int ->
  ?max_cycles:int ->
  ?inject:int * (Ggpu_fgpu.Gpu.probe -> unit) ->
  ?pmu:Ggpu_pmu.Pmu.t ->
  ?backend:Ggpu_fgpu.Gpu.backend ->
  ?domains:int ->
  Codegen_fgpu.compiled ->
  args:Interp.args ->
  global_size:int ->
  local_size:int ->
  unit ->
  result
(** [max_cycles], [inject], [pmu], [backend] and [domains] are
    forwarded to {!Ggpu_fgpu.Gpu.run} (watchdog, fault-injection hook,
    the performance-monitoring collector, the lane-execution engine,
    and the functional-phase domain fan-out). *)

val output : result -> string -> int32 array
(** Final contents of one buffer, converted to [int32] on each call.
    @raise Setup_error on an unknown buffer name. *)
