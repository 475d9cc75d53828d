(* Wavefront state and lane-level execution.

   A wavefront is 64 work-items executing in lockstep on 8 processing
   elements over 8 beats.  Full thread divergence is supported with a
   minimum-PC policy: each issue selects the smallest program counter
   among live lanes and executes it for exactly the lanes sitting at that
   PC.  Divergent lane groups therefore serialise (as in any SIMT
   machine) and naturally reconverge at control-flow join points, because
   all compiler-emitted joins are at larger addresses than the paths that
   reach them.

   Register semantics mirror {!Ggpu_riscv.Cpu} (RISC-V M division corner
   cases) so the GPU, the CPU and the reference interpreter agree
   bit-for-bit.  Registers and global memory are [int array]s in the
   canonical sign-extended representation of {!Ggpu_isa.I32}: an [int32
   array] stores one boxed cell per element, which would cost an
   allocation per register write — the old hot path's dominant cost.

   The register file is register-major: register [r] of lane [l] lives
   at [r * size + l], so one instruction's operand slices are three
   contiguous 64-word runs instead of 64 strided touches across a 16 KiB
   lane-major block.  Two extra tricks remove every per-lane branch from
   the ALU loops:

   - slice 0 (register x0) is never written, so reads of x0 fall out of
     the same indexed load as any other register and return 0 without a
     [rs = 0] test;

   - slice 32 is a write sink: an instruction with [rd = 0] redirects
     its (architecturally discarded) result there, so the store needs no
     [rd <> 0] test either.  The sink is scratch — external readers go
     through {!reg}, which answers 0 for x0 directly.

   [issue] consumes the predecoded program ({!Ggpu_isa.Fgpu_predecode})
   and writes into a caller-owned [outcome] scratch record; a converged
   issue reads its pc straight from [conv_pc] instead of through
   [select_pc]'s pair, so a multi-million-instruction run allocates
   nothing per converged issue.  Memory accesses test the line charged
   last before paying for a division ({!coalesce_and_check}).  Two more
   devices keep the per-lane cost at a handful of machine instructions:

   - the instruction is discriminated once per lane group, with the hot
     operators (the compiler does not inline through a 13-way match
     without flambda) given dedicated lane loops;

   - convergence is tracked incrementally in [conv_pc].  When every lane
     sits at the same pc — the overwhelmingly common state for
     data-parallel kernels — the issue path knows it without scanning
     [pcs], executes a dense loop with no per-lane pc check, and leaves
     [pcs] stale, advancing only [conv_pc].  The array is materialised
     on the rare paths that read it directly (divergence, retirement,
     fault-injection probes).  A mixed-outcome branch writes real pcs
     and drops to the sparse path; the sparse scan re-detects
     reconvergence for free while computing the minimum pc. *)

open Ggpu_isa

let done_pc = max_int

(* Register-file geometry: 32 architectural slices plus the x0 write
   sink at slice 32. *)
let num_reg_slices = 33
let sink_reg = 32

type t = {
  wg_id : int;
  wf_index : int; (* index of this wavefront inside its workgroup *)
  size : int; (* lanes *)
  wg_offset : int; (* global id of the workgroup's first item *)
  wg_size : int;
  global_size : int;
  pcs : int array; (* per lane; [done_pc] when retired; stale while converged *)
  regs : int array;
      (* 33 slices x size lanes, register-major ([r * size + lane]);
         I32 canonical.  Slice 0 stays zero, slice 32 is the x0 sink. *)
  mutable conv_pc : int; (* every lane live at this pc; -1 = consult [pcs] *)
  mutable uni : int;
      (* bit [r] set: every lane of slice [r] holds the same value;
         kept by the threaded backend only *)
  mutable sel_pc : int; (* cached scan_pcs result for the sparse path *)
  mutable sel_cnt : int;
  mutable sel_valid : bool;
      (* [sel_pc]/[sel_cnt] hold scan_pcs of [pcs]; maintained by the
         threaded backend's sparse loops (which visit every lane
         anyway), invalidated by every other [pcs] writer *)
  mutable live_lanes : int;
  mutable ready_at : int; (* cycle at which the next issue may happen *)
  mutable at_barrier : bool;
  mutable last_cu : int; (* CU this wavefront runs on *)
  mutable stall_kind : int;
      (* PMU stall bucket the wavefront's next issue delay belongs to
         ({!Ggpu_pmu.Pmu} stall kind); written only on instrumented
         runs, never read by the scheduler *)
  mutable dispatched_at : int; (* cycle the wavefront's CU adopted it *)
}

(* What an issue did, so the scheduler can cost it.  One record is
   allocated per [Gpu.run] and reused across every issue; [mem_lines]
   holds the first [mem_line_count] coalesced line base addresses in
   first-touch order. *)
type outcome = {
  mutable pc : int; (* program counter the issue executed *)
  mutable executed_lanes : int;
  mutable partial_mask : bool;
  mem_lines : int array; (* coalesced line base addresses (bytes) *)
  mutable mem_line_count : int;
  mutable mem_is_store : bool;
  mutable used_div : bool;
  mutable used_mul : bool;
  mutable taken_branch : bool;
  mutable hit_barrier : bool;
  mutable retired : bool; (* whole wavefront finished *)
}

let make_outcome ~max_lanes =
  {
    pc = 0;
    executed_lanes = 0;
    partial_mask = false;
    mem_lines = Array.make (max 1 max_lanes) 0;
    mem_line_count = 0;
    mem_is_store = false;
    used_div = false;
    used_mul = false;
    taken_branch = false;
    hit_barrier = false;
    retired = false;
  }

let reg_file_words ~size = num_reg_slices * size

let create ~regs ~wg_id ~wf_index ~size ~wg_offset ~wg_size ~global_size
    ~(params : int32 list) =
  if Array.length regs <> reg_file_words ~size then
    invalid_arg "Wavefront.create: register buffer size";
  let first_lid = wf_index * size in
  let pcs =
    Array.init size (fun lane ->
        let lid = first_lid + lane in
        (* lanes past the workgroup or the global range never run *)
        if lid >= wg_size || wg_offset + lid >= global_size then done_pc else 0)
  in
  let live = Array.fold_left (fun n pc -> if pc = done_pc then n else n + 1) 0 pcs in
  (* a recycled buffer starts exactly as a fresh one would *)
  Array.fill regs 0 (Array.length regs) 0;
  List.iteri
    (fun i v ->
      let r = i + 1 and v = I32.of_int32 v in
      Array.fill regs (r * size) size v)
    params;
  {
    wg_id;
    wf_index;
    size;
    wg_offset;
    wg_size;
    global_size;
    pcs;
    regs;
    conv_pc = (if live = size then 0 else -1);
    (* zero-filled, params broadcast: every slice starts uniform *)
    uni = -1;
    sel_pc = 0;
    sel_cnt = 0;
    sel_valid = false;
    live_lanes = live;
    ready_at = 0;
    at_barrier = false;
    last_cu = -1;
    stall_kind = Ggpu_pmu.Pmu.sk_latency;
    dispatched_at = 0;
  }

let finished t = t.live_lanes = 0

(* Make [pcs] reflect reality before an external reader (fault
   injection, a probe) looks at it. *)
let materialize_pcs t =
  if t.conv_pc >= 0 then Array.fill t.pcs 0 t.size t.conv_pc

(* Overwrite a lane's program counter from outside the issue path (used
   by fault injection).  [live_lanes] is a cached count of lanes whose
   pc is not [done_pc]; recompute it so the scheduler's finished/barrier
   accounting stays consistent with the mutated pc array. *)
let set_pc t ~lane pc =
  materialize_pcs t;
  t.conv_pc <- -1;
  t.sel_valid <- false;
  t.pcs.(lane) <- pc;
  t.live_lanes <-
    Array.fold_left (fun n p -> if p = done_pc then n else n + 1) 0 t.pcs

let rec min_pc_from (pcs : int array) n i best =
  if i >= n then best
  else
    let p = Array.unsafe_get pcs i in
    min_pc_from pcs n (i + 1) (if p < best then p else best)

let min_pc t =
  if t.conv_pc >= 0 then t.conv_pc
  else if t.sel_valid then t.sel_pc
  else min_pc_from t.pcs t.size 0 done_pc

(* Int32 accessors for external observers (fault injection). *)
let reg t ~lane r =
  if r = 0 then 0l else I32.to_int32 t.regs.((r * t.size) + lane)

let set_reg t ~lane r v =
  if r <> 0 then begin
    t.regs.((r * t.size) + lane) <- I32.of_int32 v;
    t.uni <- t.uni land lnot (1 lsl r)
  end

let local_id t ~lane = (t.wf_index * t.size) + lane

let alu op a b =
  match op with
  | Fgpu_isa.Add -> I32.add a b
  | Fgpu_isa.Sub -> I32.sub a b
  | Fgpu_isa.Mul -> I32.mul a b
  | Fgpu_isa.Div -> I32.div_signed a b
  | Fgpu_isa.Rem -> I32.rem_signed a b
  | Fgpu_isa.And -> a land b
  | Fgpu_isa.Or -> a lor b
  | Fgpu_isa.Xor -> a lxor b
  | Fgpu_isa.Sll -> I32.sll a b
  | Fgpu_isa.Srl -> I32.srl a b
  | Fgpu_isa.Sra -> I32.sra a b
  | Fgpu_isa.Slt -> if a < b then 1 else 0
  | Fgpu_isa.Sltu -> if I32.ult a b then 1 else 0

let cond_holds c a b =
  match c with
  | Fgpu_isa.Eq -> a = b
  | Fgpu_isa.Ne -> a <> b
  | Fgpu_isa.Lt -> a < b
  | Fgpu_isa.Ge -> a >= b
  | Fgpu_isa.Ltu -> I32.ult a b
  | Fgpu_isa.Geu -> not (I32.ult a b)

exception Fault of string

let fault fmt = Printf.ksprintf (fun s -> raise (Fault s)) fmt

(* Minimum pc and the number of lanes sitting at it, in one pass.
   Tail-recursive so the accumulators live in registers. *)
let rec scan_pcs (pcs : int array) n i best cnt =
  if i >= n then (best, cnt)
  else
    let p = Array.unsafe_get pcs i in
    if p < best then scan_pcs pcs n (i + 1) p 1
    else if p = best then scan_pcs pcs n (i + 1) best (cnt + 1)
    else scan_pcs pcs n (i + 1) best cnt

(* Pick the pc the next issue executes and how many lanes sit at it.
   On the sparse path the scan re-detects reconvergence: every lane
   back at one pc flips the wavefront to the dense path.  Shared by the
   interpreting issue below and the threaded backend ({!Threaded}). *)
let select_pc t =
  if t.conv_pc >= 0 then (t.conv_pc, t.size)
  else begin
    let pc, cnt =
      if t.sel_valid then (t.sel_pc, t.sel_cnt)
      else scan_pcs t.pcs t.size 0 done_pc 0
    in
    if cnt = t.size then t.conv_pc <- pc;
    (pc, cnt)
  end

(* Has [lb] already been coalesced?  Linear scan: a wavefront touches at
   most [size] lines per issue and almost always far fewer. *)
let rec line_seen (lines : int array) n lb i =
  i < n && (Array.unsafe_get lines i = lb || line_seen lines n lb (i + 1))

let charge_line (out : outcome) ~line_bytes addr =
  let lb = addr / line_bytes * line_bytes in
  let n = out.mem_line_count in
  if not (line_seen out.mem_lines n lb 0) then begin
    out.mem_lines.(n) <- lb;
    out.mem_line_count <- n + 1
  end

(* Record the line containing [addr], then validate the word address.
   The order matters: the timing model charges the coalesced request
   even when the access itself faults (matching the original issue
   path, where [add_line] ran before the bounds check).

   Consecutive lanes almost always hit the line charged last, so that
   line is tested first with a subtraction; only a miss pays the
   division and the scan.  A non-negative line base [last] with
   [last <= addr < last + line_bytes] is exactly the line the division
   would compute, and negative addresses never take the shortcut, so
   truncating division still decides them. *)
let[@inline] coalesce_and_check (out : outcome) ~line_bytes ~mem_words addr =
  let n = out.mem_line_count in
  let last = if n > 0 then Array.unsafe_get out.mem_lines (n - 1) else -1 in
  if not (last >= 0 && addr >= last && addr - last < line_bytes) then
    charge_line out ~line_bytes addr;
  if addr land 3 <> 0 then fault "misaligned access 0x%x" addr;
  let w = addr lsr 2 in
  if w >= mem_words then fault "address 0x%x out of memory" addr;
  w

(* Destination slice offset: an [rd = 0] result is architecturally
   discarded, so it lands in the sink slice and the lane loop needs no
   conditional. *)
let[@inline] dst_off ~size rd = (if rd = 0 then sink_reg else rd) * size

(* Execute one instruction for the [executed] lanes at [pc], the
   minimum PC.  Global memory is read/written immediately through
   [mem]; the line buffer in [out] carries the timing cost to the
   scheduler. *)
let issue_at t ~(dprog : Fgpu_predecode.t array) ~(mem : int array) ~line_words
    (out : outcome) pc executed : unit =
  let size = t.size in
  let pcs = t.pcs and regs = t.regs in
  (* the interpreting path writes [pcs] without maintaining the sparse
     selection cache *)
  t.sel_valid <- false;
  if pc < 0 || pc >= Array.length dprog then fault "pc %d outside program" pc;
  let d = dprog.(pc) in
  let live_before = t.live_lanes in
  out.pc <- pc;
  out.mem_line_count <- 0;
  out.mem_is_store <- d.Fgpu_predecode.is_store;
  out.used_div <- d.Fgpu_predecode.uses_div;
  out.used_mul <- d.Fgpu_predecode.uses_mul;
  out.taken_branch <- false;
  out.hit_barrier <- false;
  out.executed_lanes <- executed;
  out.partial_mask <- executed < live_before;
  let dense = t.conv_pc >= 0 in
  (match d.Fgpu_predecode.kind with
  | Fgpu_predecode.KAlu when dense -> (
      t.conv_pc <- pc + 1;
      let od = dst_off ~size d.Fgpu_predecode.rd
      and o1 = d.Fgpu_predecode.rs1 * size
      and o2 = d.Fgpu_predecode.rs2 * size in
      match d.Fgpu_predecode.aop with
      | Fgpu_isa.Add ->
          for lane = 0 to size - 1 do
            let a = Array.unsafe_get regs (o1 + lane)
            and b = Array.unsafe_get regs (o2 + lane) in
            Array.unsafe_set regs (od + lane) (I32.sx (a + b))
          done
      | Fgpu_isa.Sub ->
          for lane = 0 to size - 1 do
            let a = Array.unsafe_get regs (o1 + lane)
            and b = Array.unsafe_get regs (o2 + lane) in
            Array.unsafe_set regs (od + lane) (I32.sx (a - b))
          done
      | Fgpu_isa.Mul ->
          for lane = 0 to size - 1 do
            let a = Array.unsafe_get regs (o1 + lane)
            and b = Array.unsafe_get regs (o2 + lane) in
            Array.unsafe_set regs (od + lane) (I32.sx (a * b))
          done
      | Fgpu_isa.And ->
          for lane = 0 to size - 1 do
            let a = Array.unsafe_get regs (o1 + lane)
            and b = Array.unsafe_get regs (o2 + lane) in
            Array.unsafe_set regs (od + lane) (a land b)
          done
      | Fgpu_isa.Or ->
          for lane = 0 to size - 1 do
            let a = Array.unsafe_get regs (o1 + lane)
            and b = Array.unsafe_get regs (o2 + lane) in
            Array.unsafe_set regs (od + lane) (a lor b)
          done
      | Fgpu_isa.Slt ->
          for lane = 0 to size - 1 do
            let a = Array.unsafe_get regs (o1 + lane)
            and b = Array.unsafe_get regs (o2 + lane) in
            Array.unsafe_set regs (od + lane) (if a < b then 1 else 0)
          done
      | Fgpu_isa.Sll ->
          for lane = 0 to size - 1 do
            let a = Array.unsafe_get regs (o1 + lane)
            and b = Array.unsafe_get regs (o2 + lane) in
            Array.unsafe_set regs (od + lane) (I32.sx (a lsl (b land 31)))
          done
      | op ->
          for lane = 0 to size - 1 do
            let a = Array.unsafe_get regs (o1 + lane)
            and b = Array.unsafe_get regs (o2 + lane) in
            Array.unsafe_set regs (od + lane) (alu op a b)
          done)
  | Fgpu_predecode.KAlu -> (
      let od = dst_off ~size d.Fgpu_predecode.rd
      and o1 = d.Fgpu_predecode.rs1 * size
      and o2 = d.Fgpu_predecode.rs2 * size in
      match d.Fgpu_predecode.aop with
      | Fgpu_isa.Add ->
          for lane = 0 to size - 1 do
            if Array.unsafe_get pcs lane = pc then begin
              let a = Array.unsafe_get regs (o1 + lane)
              and b = Array.unsafe_get regs (o2 + lane) in
              Array.unsafe_set regs (od + lane) (I32.sx (a + b));
              Array.unsafe_set pcs lane (pc + 1)
            end
          done
      | Fgpu_isa.Sub ->
          for lane = 0 to size - 1 do
            if Array.unsafe_get pcs lane = pc then begin
              let a = Array.unsafe_get regs (o1 + lane)
              and b = Array.unsafe_get regs (o2 + lane) in
              Array.unsafe_set regs (od + lane) (I32.sx (a - b));
              Array.unsafe_set pcs lane (pc + 1)
            end
          done
      | Fgpu_isa.Mul ->
          for lane = 0 to size - 1 do
            if Array.unsafe_get pcs lane = pc then begin
              let a = Array.unsafe_get regs (o1 + lane)
              and b = Array.unsafe_get regs (o2 + lane) in
              Array.unsafe_set regs (od + lane) (I32.sx (a * b));
              Array.unsafe_set pcs lane (pc + 1)
            end
          done
      | Fgpu_isa.And ->
          for lane = 0 to size - 1 do
            if Array.unsafe_get pcs lane = pc then begin
              let a = Array.unsafe_get regs (o1 + lane)
              and b = Array.unsafe_get regs (o2 + lane) in
              Array.unsafe_set regs (od + lane) (a land b);
              Array.unsafe_set pcs lane (pc + 1)
            end
          done
      | Fgpu_isa.Or ->
          for lane = 0 to size - 1 do
            if Array.unsafe_get pcs lane = pc then begin
              let a = Array.unsafe_get regs (o1 + lane)
              and b = Array.unsafe_get regs (o2 + lane) in
              Array.unsafe_set regs (od + lane) (a lor b);
              Array.unsafe_set pcs lane (pc + 1)
            end
          done
      | Fgpu_isa.Slt ->
          for lane = 0 to size - 1 do
            if Array.unsafe_get pcs lane = pc then begin
              let a = Array.unsafe_get regs (o1 + lane)
              and b = Array.unsafe_get regs (o2 + lane) in
              Array.unsafe_set regs (od + lane) (if a < b then 1 else 0);
              Array.unsafe_set pcs lane (pc + 1)
            end
          done
      | Fgpu_isa.Sll ->
          for lane = 0 to size - 1 do
            if Array.unsafe_get pcs lane = pc then begin
              let a = Array.unsafe_get regs (o1 + lane)
              and b = Array.unsafe_get regs (o2 + lane) in
              Array.unsafe_set regs (od + lane) (I32.sx (a lsl (b land 31)));
              Array.unsafe_set pcs lane (pc + 1)
            end
          done
      | op ->
          for lane = 0 to size - 1 do
            if Array.unsafe_get pcs lane = pc then begin
              let a = Array.unsafe_get regs (o1 + lane)
              and b = Array.unsafe_get regs (o2 + lane) in
              Array.unsafe_set regs (od + lane) (alu op a b);
              Array.unsafe_set pcs lane (pc + 1)
            end
          done)
  | Fgpu_predecode.KAlui when dense -> (
      t.conv_pc <- pc + 1;
      let od = dst_off ~size d.Fgpu_predecode.rd
      and o1 = d.Fgpu_predecode.rs1 * size
      and b = d.Fgpu_predecode.imm in
      match d.Fgpu_predecode.aop with
      | Fgpu_isa.Add ->
          for lane = 0 to size - 1 do
            let a = Array.unsafe_get regs (o1 + lane) in
            Array.unsafe_set regs (od + lane) (I32.sx (a + b))
          done
      | Fgpu_isa.And ->
          for lane = 0 to size - 1 do
            let a = Array.unsafe_get regs (o1 + lane) in
            Array.unsafe_set regs (od + lane) (a land b)
          done
      | Fgpu_isa.Srl ->
          for lane = 0 to size - 1 do
            let a = Array.unsafe_get regs (o1 + lane) in
            Array.unsafe_set regs (od + lane)
              (I32.sx ((a land I32.mask) lsr (b land 31)))
          done
      | Fgpu_isa.Sll ->
          for lane = 0 to size - 1 do
            let a = Array.unsafe_get regs (o1 + lane) in
            Array.unsafe_set regs (od + lane) (I32.sx (a lsl (b land 31)))
          done
      | op ->
          for lane = 0 to size - 1 do
            let a = Array.unsafe_get regs (o1 + lane) in
            Array.unsafe_set regs (od + lane) (alu op a b)
          done)
  | Fgpu_predecode.KAlui -> (
      let od = dst_off ~size d.Fgpu_predecode.rd
      and o1 = d.Fgpu_predecode.rs1 * size
      and b = d.Fgpu_predecode.imm in
      match d.Fgpu_predecode.aop with
      | Fgpu_isa.Add ->
          for lane = 0 to size - 1 do
            if Array.unsafe_get pcs lane = pc then begin
              let a = Array.unsafe_get regs (o1 + lane) in
              Array.unsafe_set regs (od + lane) (I32.sx (a + b));
              Array.unsafe_set pcs lane (pc + 1)
            end
          done
      | Fgpu_isa.And ->
          for lane = 0 to size - 1 do
            if Array.unsafe_get pcs lane = pc then begin
              let a = Array.unsafe_get regs (o1 + lane) in
              Array.unsafe_set regs (od + lane) (a land b);
              Array.unsafe_set pcs lane (pc + 1)
            end
          done
      | Fgpu_isa.Srl ->
          for lane = 0 to size - 1 do
            if Array.unsafe_get pcs lane = pc then begin
              let a = Array.unsafe_get regs (o1 + lane) in
              Array.unsafe_set regs (od + lane)
                (I32.sx ((a land I32.mask) lsr (b land 31)));
              Array.unsafe_set pcs lane (pc + 1)
            end
          done
      | Fgpu_isa.Sll ->
          for lane = 0 to size - 1 do
            if Array.unsafe_get pcs lane = pc then begin
              let a = Array.unsafe_get regs (o1 + lane) in
              Array.unsafe_set regs (od + lane) (I32.sx (a lsl (b land 31)));
              Array.unsafe_set pcs lane (pc + 1)
            end
          done
      | op ->
          for lane = 0 to size - 1 do
            if Array.unsafe_get pcs lane = pc then begin
              let a = Array.unsafe_get regs (o1 + lane) in
              Array.unsafe_set regs (od + lane) (alu op a b);
              Array.unsafe_set pcs lane (pc + 1)
            end
          done)
  | Fgpu_predecode.KLoadImm ->
      let od = dst_off ~size d.Fgpu_predecode.rd and v = d.Fgpu_predecode.imm in
      if dense then begin
        t.conv_pc <- pc + 1;
        Array.fill regs od size v
      end
      else
        for lane = 0 to size - 1 do
          if Array.unsafe_get pcs lane = pc then begin
            Array.unsafe_set regs (od + lane) v;
            Array.unsafe_set pcs lane (pc + 1)
          end
        done
  | Fgpu_predecode.KLw ->
      let od = dst_off ~size d.Fgpu_predecode.rd
      and o1 = d.Fgpu_predecode.rs1 * size
      and off = d.Fgpu_predecode.imm in
      let line_bytes = line_words * 4 in
      let mem_words = Array.length mem in
      if dense then begin
        t.conv_pc <- pc + 1;
        for lane = 0 to size - 1 do
          let addr = Array.unsafe_get regs (o1 + lane) + off in
          let w = coalesce_and_check out ~line_bytes ~mem_words addr in
          Array.unsafe_set regs (od + lane) (Array.unsafe_get mem w)
        done
      end
      else
        for lane = 0 to size - 1 do
          if Array.unsafe_get pcs lane = pc then begin
            let addr = Array.unsafe_get regs (o1 + lane) + off in
            let w = coalesce_and_check out ~line_bytes ~mem_words addr in
            Array.unsafe_set regs (od + lane) (Array.unsafe_get mem w);
            Array.unsafe_set pcs lane (pc + 1)
          end
        done
  | Fgpu_predecode.KSw ->
      (* the store-data register travels in the rd field: a read, so no
         sink redirection — x0 reads as slice 0's zeros *)
      let o2 = d.Fgpu_predecode.rd * size
      and o1 = d.Fgpu_predecode.rs1 * size
      and off = d.Fgpu_predecode.imm in
      let line_bytes = line_words * 4 in
      let mem_words = Array.length mem in
      if dense then begin
        t.conv_pc <- pc + 1;
        for lane = 0 to size - 1 do
          let addr = Array.unsafe_get regs (o1 + lane) + off in
          let w = coalesce_and_check out ~line_bytes ~mem_words addr in
          Array.unsafe_set mem w (Array.unsafe_get regs (o2 + lane))
        done
      end
      else
        for lane = 0 to size - 1 do
          if Array.unsafe_get pcs lane = pc then begin
            let addr = Array.unsafe_get regs (o1 + lane) + off in
            let w = coalesce_and_check out ~line_bytes ~mem_words addr in
            Array.unsafe_set mem w (Array.unsafe_get regs (o2 + lane));
            Array.unsafe_set pcs lane (pc + 1)
          end
        done
  | Fgpu_predecode.KBranch ->
      (* a branch always computes real per-lane pcs: a mixed outcome is
         exactly how a converged wavefront diverges.  In dense mode the
         taken count decides whether convergence survives (uniform
         outcome) or [pcs] becomes authoritative.  The second operand
         travels in the rd field (a read). *)
      let o1 = d.Fgpu_predecode.rs1 * size and o2 = d.Fgpu_predecode.rd * size in
      let target = pc + 1 + d.Fgpu_predecode.imm in
      let taken = ref 0 in
      (if dense then begin
         (match d.Fgpu_predecode.cnd with
         | Fgpu_isa.Lt ->
             for lane = 0 to size - 1 do
               let a = Array.unsafe_get regs (o1 + lane)
               and b = Array.unsafe_get regs (o2 + lane) in
               if a < b then begin
                 incr taken;
                 Array.unsafe_set pcs lane target
               end
               else Array.unsafe_set pcs lane (pc + 1)
             done
         | Fgpu_isa.Ge ->
             for lane = 0 to size - 1 do
               let a = Array.unsafe_get regs (o1 + lane)
               and b = Array.unsafe_get regs (o2 + lane) in
               if a >= b then begin
                 incr taken;
                 Array.unsafe_set pcs lane target
               end
               else Array.unsafe_set pcs lane (pc + 1)
             done
         | Fgpu_isa.Eq ->
             for lane = 0 to size - 1 do
               let a = Array.unsafe_get regs (o1 + lane)
               and b = Array.unsafe_get regs (o2 + lane) in
               if a = b then begin
                 incr taken;
                 Array.unsafe_set pcs lane target
               end
               else Array.unsafe_set pcs lane (pc + 1)
             done
         | Fgpu_isa.Ne ->
             for lane = 0 to size - 1 do
               let a = Array.unsafe_get regs (o1 + lane)
               and b = Array.unsafe_get regs (o2 + lane) in
               if a <> b then begin
                 incr taken;
                 Array.unsafe_set pcs lane target
               end
               else Array.unsafe_set pcs lane (pc + 1)
             done
         | c ->
             for lane = 0 to size - 1 do
               let a = Array.unsafe_get regs (o1 + lane)
               and b = Array.unsafe_get regs (o2 + lane) in
               if cond_holds c a b then begin
                 incr taken;
                 Array.unsafe_set pcs lane target
               end
               else Array.unsafe_set pcs lane (pc + 1)
             done);
         if !taken = 0 then t.conv_pc <- pc + 1
         else if !taken = size then t.conv_pc <- target
         else t.conv_pc <- -1
       end
       else begin
         let c = d.Fgpu_predecode.cnd in
         for lane = 0 to size - 1 do
           if Array.unsafe_get pcs lane = pc then begin
             let a = Array.unsafe_get regs (o1 + lane)
             and b = Array.unsafe_get regs (o2 + lane) in
             if cond_holds c a b then begin
               incr taken;
               Array.unsafe_set pcs lane target
             end
             else Array.unsafe_set pcs lane (pc + 1)
           end
         done
       end);
      out.taken_branch <- !taken > 0
  | Fgpu_predecode.KJump ->
      let target = d.Fgpu_predecode.imm in
      out.taken_branch <- true;
      if dense then t.conv_pc <- target
      else
        for lane = 0 to size - 1 do
          if Array.unsafe_get pcs lane = pc then
            Array.unsafe_set pcs lane target
        done
  | Fgpu_predecode.KSpecial ->
      let sp = d.Fgpu_predecode.sp in
      let od = dst_off ~size d.Fgpu_predecode.rd in
      if dense then begin
        t.conv_pc <- pc + 1;
        match sp with
        | Fgpu_isa.Lid ->
            let first = t.wf_index * size in
            for lane = 0 to size - 1 do
              Array.unsafe_set regs (od + lane) (first + lane)
            done
        | Fgpu_isa.Wgid -> Array.fill regs od size t.wg_id
        | Fgpu_isa.Wgoff -> Array.fill regs od size t.wg_offset
        | Fgpu_isa.Wgsize -> Array.fill regs od size t.wg_size
        | Fgpu_isa.Gsize -> Array.fill regs od size t.global_size
      end
      else
        for lane = 0 to size - 1 do
          if Array.unsafe_get pcs lane = pc then begin
            let v =
              match sp with
              | Fgpu_isa.Lid -> local_id t ~lane
              | Fgpu_isa.Wgid -> t.wg_id
              | Fgpu_isa.Wgoff -> t.wg_offset
              | Fgpu_isa.Wgsize -> t.wg_size
              | Fgpu_isa.Gsize -> t.global_size
            in
            Array.unsafe_set regs (od + lane) v;
            Array.unsafe_set pcs lane (pc + 1)
          end
        done
  | Fgpu_predecode.KBarrier ->
      out.hit_barrier <- true;
      if dense then t.conv_pc <- pc + 1
      else
        for lane = 0 to size - 1 do
          if Array.unsafe_get pcs lane = pc then
            Array.unsafe_set pcs lane (pc + 1)
        done
  | Fgpu_predecode.KRet ->
      if dense then begin
        (* all lanes retire together; [pcs] becomes authoritative again
           so external readers see the retired state directly *)
        Array.fill pcs 0 size done_pc;
        t.conv_pc <- -1;
        t.live_lanes <- 0
      end
      else begin
        for lane = 0 to size - 1 do
          if Array.unsafe_get pcs lane = pc then
            Array.unsafe_set pcs lane done_pc
        done;
        t.live_lanes <- t.live_lanes - executed
      end);
  out.retired <- finished t

(* The converged path reads [conv_pc]/[size] directly: going through
   [select_pc] would allocate its pair on every issue. *)
let issue t ~dprog ~mem ~line_words out =
  assert (not (finished t));
  let conv = t.conv_pc in
  if conv >= 0 then issue_at t ~dprog ~mem ~line_words out conv t.size
  else
    let pc, executed = select_pc t in
    issue_at t ~dprog ~mem ~line_words out pc executed
