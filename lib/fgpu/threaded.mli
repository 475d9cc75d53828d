(** Threaded-code backend: the predecoded program compiled once per
    launch into per-pc closures (one dense, one sparse, mirroring the
    convergence split of {!Wavefront.issue}), so the hot loop executes
    straight-line compiled lane loops with all operand offsets,
    immediates and branch targets captured at compile time.

    Behaviourally interchangeable with the interpreting path: for any
    wavefront state whose [uni] bits hold (every bit set marks a slice
    whose lanes agree; see {!Wavefront.t}), {!issue} leaves the
    wavefront, the outcome record and global memory exactly as
    {!Wavefront.issue} would — including fault messages and
    memory-check ordering — and keeps the bits true.  Instructions
    whose sources are all uniform run once per wavefront.  Enforced by
    the golden cycle table and the differential property tests. *)

type t

val compile :
  Ggpu_isa.Fgpu_predecode.t array ->
  wf_size:int ->
  mem:int array ->
  line_words:int ->
  t
(** Compile a predecoded program for one launch.  The closures capture
    [mem] and the launch geometry, so a compiled program is only valid
    for the run it was compiled for.  Cost is linear in program length
    (a few closure allocations per instruction) — negligible next to
    any simulation. *)

val issue : t -> Wavefront.t -> Wavefront.outcome -> unit
(** Drop-in replacement for {!Wavefront.issue} (same prologue, same
    outcome contract).  @raise Wavefront.Fault on bad addresses or a
    wild pc, with the interpreter's exact messages. *)
