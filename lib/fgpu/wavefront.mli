(** Wavefront state and lane-level execution: 64 work-items in lockstep
    on 8 processing elements, with full divergence under a minimum-PC
    policy (divergent lane groups serialise and reconverge at joins).
    Register semantics mirror {!Ggpu_riscv.Cpu} so all executors agree
    bit-for-bit.

    Registers and memory are native [int array]s holding canonical
    {!Ggpu_isa.I32} values (an [int32 array] would box every element);
    [issue] consumes the predecoded program and a reusable [outcome]
    scratch record, so the steady-state issue path allocates nothing. *)

val done_pc : int

val sink_reg : int
(** Index of the write-sink register slice that absorbs [rd = 0]
    results (slice 32, just past the architectural file). *)

type t = {
  wg_id : int;
  wf_index : int;
  size : int;
  wg_offset : int;
  wg_size : int;
  global_size : int;
  pcs : int array;
      (** per lane; [done_pc] when retired.  Stale while the wavefront
          is converged — call {!materialize_pcs} before reading *)
  regs : int array;
      (** 33 register slices x size lanes, register-major (register [r]
          of lane [l] at [r * size + l]), {!Ggpu_isa.I32} canonical.
          Slice 0 (x0) is never written so reads need no zero check;
          slice 32 is a write sink that absorbs [rd = 0] results so
          writes need no check either.  Read through {!reg} from
          outside the issue path. *)
  mutable conv_pc : int;
      (** incrementally-tracked convergence: when >= 0, every lane is
          live at this pc and [pcs] may be stale; -1 means [pcs] is
          authoritative *)
  mutable uni : int;
      (** register uniformity: bit [r] set means every lane of slice [r]
          holds the same value, so the threaded backend may execute an
          instruction whose sources are all uniform once, from lane 0,
          and still write its result to every lane.  {!create} sets
          every bit and {!set_reg} clears bit [r]; the threaded
          backend's closures maintain it on every register write.
          {!issue} neither reads nor maintains it: a wavefront is issued
          by one engine for its whole life (one engine per
          [Gpu.run]), so the bits are only ever read by the engine that
          keeps them. *)
  mutable sel_pc : int;
  mutable sel_cnt : int;
  mutable sel_valid : bool;
      (** when true, [sel_pc]/[sel_cnt] cache what a scan of [pcs]
          would return ({!select_pc}'s sparse answer).  The threaded
          backend's sparse lane loops maintain the cache as they
          rewrite [pcs]; every other writer invalidates it. *)
  mutable live_lanes : int;
  mutable ready_at : int;
  mutable at_barrier : bool;
  mutable last_cu : int;
  mutable stall_kind : int;
      (** PMU stall kind ({!Ggpu_pmu.Pmu}) the next issue delay will be
          attributed to; only instrumented runs write it, the scheduler
          never reads it *)
  mutable dispatched_at : int;  (** cycle the wavefront's CU adopted it *)
}

type outcome = {
  mutable pc : int;  (** program counter the issue executed *)
  mutable executed_lanes : int;
  mutable partial_mask : bool;  (** fewer lanes than live: a divergent issue *)
  mem_lines : int array;
      (** coalesced line base addresses (bytes), first-touch order; only
          the first [mem_line_count] entries are meaningful *)
  mutable mem_line_count : int;
  mutable mem_is_store : bool;
  mutable used_div : bool;
  mutable used_mul : bool;
  mutable taken_branch : bool;
  mutable hit_barrier : bool;
  mutable retired : bool;
}

val make_outcome : max_lanes:int -> outcome
(** Scratch record for {!issue}; [max_lanes] bounds the per-issue line
    count (one wavefront touches at most one line per lane). *)

exception Fault of string

val reg_file_words : size:int -> int
(** Length of the register file of a [size]-lane wavefront: the 32
    architectural slices plus the write sink. *)

val create :
  regs:int array ->
  wg_id:int ->
  wf_index:int ->
  size:int ->
  wg_offset:int ->
  wg_size:int ->
  global_size:int ->
  params:int32 list ->
  t
(** Lanes beyond the workgroup or global range start retired; [params]
    are preloaded into r1..rN of every lane.  [regs] becomes the
    register file: it is zero-filled first, so a buffer recycled from a
    retired wavefront starts exactly as a fresh one.
    @raise Invalid_argument unless [regs] has {!reg_file_words} words. *)

val finished : t -> bool

val materialize_pcs : t -> unit
(** Make [pcs] reflect reality (fill with [conv_pc] when converged) so
    an external reader — fault injection, a probe — sees true per-lane
    state. Cheap; does not change architectural state. *)

val set_pc : t -> lane:int -> int -> unit
(** Overwrite one lane's pc from outside the issue path (fault
    injection), recounting [live_lanes] so scheduler accounting stays
    consistent. [done_pc] retires the lane; any other value revives it. *)

val min_pc : t -> int

val select_pc : t -> int * int
(** The pc the next issue executes and the number of lanes sitting at
    it, in one pass.  On the sparse path the scan re-detects
    reconvergence and flips the wavefront back to dense ([conv_pc]).
    Backend helper, shared by {!issue} and {!Threaded}. *)

val alu : Ggpu_isa.Fgpu_isa.alu_op -> int -> int -> int
(** ALU semantics on canonical {!Ggpu_isa.I32} values (RISC-V M
    division corner cases included). *)

val cond_holds : Ggpu_isa.Fgpu_isa.cond -> int -> int -> bool

val coalesce_and_check : outcome -> line_bytes:int -> mem_words:int -> int -> int
(** Record the cache line containing a byte address into the outcome's
    line buffer (first-touch order, deduplicated), then validate the
    access; returns the word index.  The line is charged before
    validation so the timing model sees the request even when the
    access faults.  An address inside the line charged last skips the
    division and the deduplication scan; the result is the same.
    @raise Fault on misaligned or out-of-range addresses. *)

val reg : t -> lane:int -> int -> int32
(** Architectural register read as [int32] (fault-injection interface). *)

val set_reg : t -> lane:int -> int -> int32 -> unit
(** Architectural register write from outside the issue path (fault
    injection); clears bit [r] of [uni]. *)

val local_id : t -> lane:int -> int

val issue :
  t ->
  dprog:Ggpu_isa.Fgpu_predecode.t array ->
  mem:int array ->
  line_words:int ->
  outcome ->
  unit
(** Execute one instruction for all lanes at the minimum PC. Global
    memory is read/written immediately; timing comes from the outcome
    scratch record, overwritten in place. @raise Fault on bad addresses
    or a wild PC. *)
