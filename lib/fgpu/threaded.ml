(* Threaded-code backend: compile a predecoded program into per-pc
   OCaml closures so the hot loop executes straight-line compiled code
   instead of dispatching on instruction tags.

   [compile] runs once per launch and turns every instruction into two
   closures — one for the dense (converged) path, one for the sparse
   (divergent) path — mirroring {!Wavefront.issue}'s convergence split.
   Each closure captures everything that is constant for the launch:
   the operand slice offsets into the register-major register file
   ([rs1 * size] etc., with [rd = 0] redirected to the write sink), the
   precomputed immediate, the branch target, and the global-memory
   array.  What the interpreting path re-derives on every issue — field
   loads from the predecode record, the destination-offset computation,
   the per-lane-group [match] on the instruction kind and operator —
   is paid exactly once at compile time.

   The lane loops themselves live in top-level functions that take
   every loop-invariant as a parameter.  A closure that ran the [for]
   loop directly would reload the captured offsets from its environment
   on every iteration: without flambda the compiler cannot hoist the
   environment projections past the register-file stores (the loads
   are not provably invariant across them), which costs three to five
   extra memory loads per lane.  With the loop split out, the closure
   projects each captured value exactly once per issue, passes them as
   arguments, and the self tail call compiles to a jump with every
   operand in a machine register.

   Per-issue outcome flags that depend only on the instruction
   (store/div/mul) live in a side table consulted by {!issue} rather
   than in the closures, keeping the closures pure lane loops.

   Equivalence contract: for any wavefront state, [issue th wf out]
   leaves the wavefront, the outcome record and global memory in
   exactly the state {!Wavefront.issue} would, including fault messages
   and the charge-line-before-validating order of memory checks.  The
   one representational liberty is already sanctioned by the wavefront
   invariants: a uniform branch outcome on the dense path updates only
   [conv_pc] and leaves [pcs] stale (the interpreting path writes real
   pcs first), which is unobservable because every external reader goes
   through {!Wavefront.materialize_pcs}.

   Dense closures also execute wavefront-uniform instructions once.
   [Wavefront.uni] records which register slices hold one value in
   every lane; an ALU op, load or branch whose sources are all uniform
   runs its scalar arm (one computation from lane 0, one memory check,
   one comparison) and broadcasts the result to every lane, so the
   register file is the one the lane loop would have written.  Every
   closure that writes a register keeps the destination's bit. *)

open Ggpu_isa

type op = Wavefront.t -> Wavefront.outcome -> unit

type t = {
  dense : op array;
  sparse : op array;
  flags : int array;  (* bit 0 = store, bit 1 = div, bit 2 = mul *)
  prog_len : int;
}

let fault fmt = Printf.ksprintf (fun s -> raise (Wavefront.Fault s)) fmt

(* Destination slice offset with the x0 write sink, as in the
   interpreting path. *)
let dst_off ~size rd = (if rd = 0 then Wavefront.sink_reg else rd) * size

(* ------------------------------------------------------------------ *)
(* Dense lane loops: every lane executes, pcs stay stale.             *)

let rec d_add (regs : int array) o1 o2 od lane n =
  if lane < n then begin
    let a = Array.unsafe_get regs (o1 + lane)
    and b = Array.unsafe_get regs (o2 + lane) in
    Array.unsafe_set regs (od + lane) (I32.sx (a + b));
    d_add regs o1 o2 od (lane + 1) n
  end

let rec d_sub (regs : int array) o1 o2 od lane n =
  if lane < n then begin
    let a = Array.unsafe_get regs (o1 + lane)
    and b = Array.unsafe_get regs (o2 + lane) in
    Array.unsafe_set regs (od + lane) (I32.sx (a - b));
    d_sub regs o1 o2 od (lane + 1) n
  end

let rec d_mul (regs : int array) o1 o2 od lane n =
  if lane < n then begin
    let a = Array.unsafe_get regs (o1 + lane)
    and b = Array.unsafe_get regs (o2 + lane) in
    Array.unsafe_set regs (od + lane) (I32.sx (a * b));
    d_mul regs o1 o2 od (lane + 1) n
  end

let rec d_and (regs : int array) o1 o2 od lane n =
  if lane < n then begin
    let a = Array.unsafe_get regs (o1 + lane)
    and b = Array.unsafe_get regs (o2 + lane) in
    Array.unsafe_set regs (od + lane) (a land b);
    d_and regs o1 o2 od (lane + 1) n
  end

let rec d_or (regs : int array) o1 o2 od lane n =
  if lane < n then begin
    let a = Array.unsafe_get regs (o1 + lane)
    and b = Array.unsafe_get regs (o2 + lane) in
    Array.unsafe_set regs (od + lane) (a lor b);
    d_or regs o1 o2 od (lane + 1) n
  end

let rec d_slt (regs : int array) o1 o2 od lane n =
  if lane < n then begin
    let a = Array.unsafe_get regs (o1 + lane)
    and b = Array.unsafe_get regs (o2 + lane) in
    Array.unsafe_set regs (od + lane) (if a < b then 1 else 0);
    d_slt regs o1 o2 od (lane + 1) n
  end

let rec d_sll (regs : int array) o1 o2 od lane n =
  if lane < n then begin
    let a = Array.unsafe_get regs (o1 + lane)
    and b = Array.unsafe_get regs (o2 + lane) in
    Array.unsafe_set regs (od + lane) (I32.sx (a lsl (b land 31)));
    d_sll regs o1 o2 od (lane + 1) n
  end

let rec d_xor (regs : int array) o1 o2 od lane n =
  if lane < n then begin
    let a = Array.unsafe_get regs (o1 + lane)
    and b = Array.unsafe_get regs (o2 + lane) in
    Array.unsafe_set regs (od + lane) (a lxor b);
    d_xor regs o1 o2 od (lane + 1) n
  end

let rec d_gen op (regs : int array) o1 o2 od lane n =
  if lane < n then begin
    let a = Array.unsafe_get regs (o1 + lane)
    and b = Array.unsafe_get regs (o2 + lane) in
    Array.unsafe_set regs (od + lane) (Wavefront.alu op a b);
    d_gen op regs o1 o2 od (lane + 1) n
  end

(* Immediate forms: the second operand is the same constant for every
   lane. *)

let rec di_add (regs : int array) o1 b od lane n =
  if lane < n then begin
    let a = Array.unsafe_get regs (o1 + lane) in
    Array.unsafe_set regs (od + lane) (I32.sx (a + b));
    di_add regs o1 b od (lane + 1) n
  end

let rec di_and (regs : int array) o1 b od lane n =
  if lane < n then begin
    let a = Array.unsafe_get regs (o1 + lane) in
    Array.unsafe_set regs (od + lane) (a land b);
    di_and regs o1 b od (lane + 1) n
  end

let rec di_srl (regs : int array) o1 sh od lane n =
  if lane < n then begin
    let a = Array.unsafe_get regs (o1 + lane) in
    Array.unsafe_set regs (od + lane) (I32.sx ((a land I32.mask) lsr sh));
    di_srl regs o1 sh od (lane + 1) n
  end

let rec di_sll (regs : int array) o1 sh od lane n =
  if lane < n then begin
    let a = Array.unsafe_get regs (o1 + lane) in
    Array.unsafe_set regs (od + lane) (I32.sx (a lsl sh));
    di_sll regs o1 sh od (lane + 1) n
  end

let rec di_xor (regs : int array) o1 b od lane n =
  if lane < n then begin
    let a = Array.unsafe_get regs (o1 + lane) in
    Array.unsafe_set regs (od + lane) (a lxor b);
    di_xor regs o1 b od (lane + 1) n
  end

(* [bu] arrives pre-masked to unsigned 32-bit (loop-invariant). *)
let rec di_sltu (regs : int array) o1 bu od lane n =
  if lane < n then begin
    let a = Array.unsafe_get regs (o1 + lane) in
    Array.unsafe_set regs (od + lane)
      (if a land I32.mask < bu then 1 else 0);
    di_sltu regs o1 bu od (lane + 1) n
  end

let rec di_gen op (regs : int array) o1 b od lane n =
  if lane < n then begin
    let a = Array.unsafe_get regs (o1 + lane) in
    Array.unsafe_set regs (od + lane) (Wavefront.alu op a b);
    di_gen op regs o1 b od (lane + 1) n
  end

let rec d_lid (regs : int array) od first lane n =
  if lane < n then begin
    Array.unsafe_set regs (od + lane) (first + lane);
    d_lid regs od first (lane + 1) n
  end

(* ------------------------------------------------------------------ *)
(* Scalar arms of the dense closures.  When every source slice of an
   instruction is uniform ([Wavefront.uni]), lane 0's result is every
   lane's: it is computed once and broadcast, so the register file
   stays exactly what the lane loop would have written.  Each arm sets
   the destination's bit; the lane-loop arms clear it. *)

let rec fill (regs : int array) od v lane n =
  if lane < n then begin
    Array.unsafe_set regs (od + lane) v;
    fill regs od v (lane + 1) n
  end

(* Uniformity bit of a destination, after the x0 sink redirection: x0
   itself is never written and stays uniform. *)
let dst_bit rd = 1 lsl (if rd = 0 then Wavefront.sink_reg else rd)

(* A lane loop wrote the destination: its lanes may now differ. *)
let[@inline] clear_uni (wf : Wavefront.t) dbit =
  wf.Wavefront.uni <- wf.Wavefront.uni land lnot dbit

(* Dense ALU prologue: advance [conv_pc], and if the sources in [srcs]
   are uniform run the scalar arm ([b] is the second operand's value,
   read by the caller) and answer [true]; otherwise clear the
   destination's bit and answer [false] so the caller runs its lane
   loop. *)
let[@inline] scalar_alui (wf : Wavefront.t) next op srcs o1 b od dbit size =
  wf.Wavefront.conv_pc <- next;
  let u = wf.Wavefront.uni in
  if u land srcs = srcs then begin
    let regs = wf.Wavefront.regs in
    fill regs od (Wavefront.alu op (Array.unsafe_get regs o1) b) 0 size;
    wf.Wavefront.uni <- u lor dbit;
    true
  end
  else begin
    clear_uni wf dbit;
    false
  end

let[@inline] scalar_alu (wf : Wavefront.t) next op srcs o1 o2 od dbit size =
  scalar_alui wf next op srcs o1
    (Array.unsafe_get wf.Wavefront.regs o2)
    od dbit size

(* Dense branch with both operands uniform: one comparison decides the
   whole wavefront, which stays converged ([pcs] stay stale). *)
let[@inline] branch_scalar (wf : Wavefront.t) (out : Wavefront.outcome) c o1
    o2 target next =
  let regs = wf.Wavefront.regs in
  let tk =
    Wavefront.cond_holds c (Array.unsafe_get regs o1) (Array.unsafe_get regs o2)
  in
  wf.Wavefront.conv_pc <- (if tk then target else next);
  out.Wavefront.taken_branch <- tk

(* Branch taken-lane counts, one comparison kind each. *)

let rec c_lt (regs : int array) o1 o2 lane n acc =
  if lane >= n then acc
  else
    c_lt regs o1 o2 (lane + 1) n
      (if Array.unsafe_get regs (o1 + lane) < Array.unsafe_get regs (o2 + lane)
       then acc + 1
       else acc)

let rec c_ge (regs : int array) o1 o2 lane n acc =
  if lane >= n then acc
  else
    c_ge regs o1 o2 (lane + 1) n
      (if
         Array.unsafe_get regs (o1 + lane) >= Array.unsafe_get regs (o2 + lane)
       then acc + 1
       else acc)

let rec c_gen c (regs : int array) o1 o2 lane n acc =
  if lane >= n then acc
  else
    c_gen c regs o1 o2 (lane + 1) n
      (if
         Wavefront.cond_holds c
           (Array.unsafe_get regs (o1 + lane))
           (Array.unsafe_get regs (o2 + lane))
       then acc + 1
       else acc)

(* Fused converged-branch pass for the equality tests: write the
   would-be per-lane pcs and count takers in one sweep.  If-style
   equality branches are mixed more often than not, so the fused form
   saves the second (write) pass; a uniform outcome just re-converges
   via [conv_pc] and the freshly written pcs go stale, which the
   wavefront invariants allow.  Lt/Ge keep the count-first two-pass
   shape: they guard loop back-edges and are uniform on every trip but
   the last, where writing pcs would be pure waste. *)

let rec b_eq (regs : int array) (pcs : int array) o1 o2 target next lane n tk =
  if lane >= n then tk
  else begin
    let ti =
      Bool.to_int
        (Array.unsafe_get regs (o1 + lane) = Array.unsafe_get regs (o2 + lane))
    in
    Array.unsafe_set pcs lane (next + ((target - next) land -ti));
    b_eq regs pcs o1 o2 target next (lane + 1) n (tk + ti)
  end

let rec b_ne (regs : int array) (pcs : int array) o1 o2 target next lane n tk =
  if lane >= n then tk
  else begin
    let ti =
      Bool.to_int
        (Array.unsafe_get regs (o1 + lane) <> Array.unsafe_get regs (o2 + lane))
    in
    Array.unsafe_set pcs lane (next + ((target - next) land -ti));
    b_ne regs pcs o1 o2 target next (lane + 1) n (tk + ti)
  end

(* Mixed branch outcome: write authoritative per-lane pcs. *)

let rec w_lt (regs : int array) (pcs : int array) o1 o2 target next lane n =
  if lane < n then begin
    Array.unsafe_set pcs lane
      (if Array.unsafe_get regs (o1 + lane) < Array.unsafe_get regs (o2 + lane)
       then target
       else next);
    w_lt regs pcs o1 o2 target next (lane + 1) n
  end

let rec w_ge (regs : int array) (pcs : int array) o1 o2 target next lane n =
  if lane < n then begin
    Array.unsafe_set pcs lane
      (if
         Array.unsafe_get regs (o1 + lane) >= Array.unsafe_get regs (o2 + lane)
       then target
       else next);
    w_ge regs pcs o1 o2 target next (lane + 1) n
  end

let rec w_gen c (regs : int array) (pcs : int array) o1 o2 target next lane n =
  if lane < n then begin
    Array.unsafe_set pcs lane
      (if
         Wavefront.cond_holds c
           (Array.unsafe_get regs (o1 + lane))
           (Array.unsafe_get regs (o2 + lane))
       then target
       else next);
    w_gen c regs pcs o1 o2 target next (lane + 1) n
  end

(* ------------------------------------------------------------------ *)
(* Sparse lane loops: only lanes sitting at [pc] execute and advance.
   Every loop visits all lanes anyway, so each also folds the min-pc /
   count-at-min of the FINAL [pcs] values into [best]/[cnt] (the exact
   [Wavefront.scan_pcs] answer) and caches it on the wavefront at the
   end: the next issue's [select_pc] and the burst check's [min_pc]
   become O(1) instead of re-scanning the lane array. *)

(* Sequential sparse loops exploit the min-pc issue policy: the issued
   pc is the minimum over live lanes, so after members advance to
   [next] = pc + 1 every other live lane sits at > pc, i.e. >= [next] —
   the new minimum is [next] unconditionally, and the loop only counts
   lanes ending at [next].  Lane membership is a ~coin-flip data-
   dependent test, so the loops are branchless: the result and the pc
   advance are mask-selected ([msk] = all-ones for members), a
   non-member store rewrites the old value.  The unconditional ALU work
   is safe — no specialized op faults, and OCaml int ops do not trap. *)
let rec s_add (wf : Wavefront.t) (regs : int array) (pcs : int array)
    (pc : int) next o1 o2 od lane n cnt =
  if lane >= n then begin
    wf.Wavefront.sel_pc <- next;
    wf.Wavefront.sel_cnt <- cnt;
    wf.Wavefront.sel_valid <- true
  end
  else begin
    let p = Array.unsafe_get pcs lane in
    let msk = -(Bool.to_int (p = pc)) in
    let a = Array.unsafe_get regs (o1 + lane)
    and b = Array.unsafe_get regs (o2 + lane) in
    let v = I32.sx (a + b) in
    let old = Array.unsafe_get regs (od + lane) in
    Array.unsafe_set regs (od + lane) (old lxor ((old lxor v) land msk));
    let p' = p lxor ((p lxor next) land msk) in
    Array.unsafe_set pcs lane p';
    s_add wf regs pcs pc next o1 o2 od (lane + 1) n (cnt + Bool.to_int (p' = next))
  end

let rec s_sub (wf : Wavefront.t) (regs : int array) (pcs : int array)
    (pc : int) next o1 o2 od lane n cnt =
  if lane >= n then begin
    wf.Wavefront.sel_pc <- next;
    wf.Wavefront.sel_cnt <- cnt;
    wf.Wavefront.sel_valid <- true
  end
  else begin
    let p = Array.unsafe_get pcs lane in
    let msk = -(Bool.to_int (p = pc)) in
    let a = Array.unsafe_get regs (o1 + lane)
    and b = Array.unsafe_get regs (o2 + lane) in
    let v = I32.sx (a - b) in
    let old = Array.unsafe_get regs (od + lane) in
    Array.unsafe_set regs (od + lane) (old lxor ((old lxor v) land msk));
    let p' = p lxor ((p lxor next) land msk) in
    Array.unsafe_set pcs lane p';
    s_sub wf regs pcs pc next o1 o2 od (lane + 1) n (cnt + Bool.to_int (p' = next))
  end

let rec s_mul (wf : Wavefront.t) (regs : int array) (pcs : int array)
    (pc : int) next o1 o2 od lane n cnt =
  if lane >= n then begin
    wf.Wavefront.sel_pc <- next;
    wf.Wavefront.sel_cnt <- cnt;
    wf.Wavefront.sel_valid <- true
  end
  else begin
    let p = Array.unsafe_get pcs lane in
    let msk = -(Bool.to_int (p = pc)) in
    let a = Array.unsafe_get regs (o1 + lane)
    and b = Array.unsafe_get regs (o2 + lane) in
    let v = I32.sx (a * b) in
    let old = Array.unsafe_get regs (od + lane) in
    Array.unsafe_set regs (od + lane) (old lxor ((old lxor v) land msk));
    let p' = p lxor ((p lxor next) land msk) in
    Array.unsafe_set pcs lane p';
    s_mul wf regs pcs pc next o1 o2 od (lane + 1) n (cnt + Bool.to_int (p' = next))
  end

let rec s_and (wf : Wavefront.t) (regs : int array) (pcs : int array)
    (pc : int) next o1 o2 od lane n cnt =
  if lane >= n then begin
    wf.Wavefront.sel_pc <- next;
    wf.Wavefront.sel_cnt <- cnt;
    wf.Wavefront.sel_valid <- true
  end
  else begin
    let p = Array.unsafe_get pcs lane in
    let msk = -(Bool.to_int (p = pc)) in
    let a = Array.unsafe_get regs (o1 + lane)
    and b = Array.unsafe_get regs (o2 + lane) in
    let v = a land b in
    let old = Array.unsafe_get regs (od + lane) in
    Array.unsafe_set regs (od + lane) (old lxor ((old lxor v) land msk));
    let p' = p lxor ((p lxor next) land msk) in
    Array.unsafe_set pcs lane p';
    s_and wf regs pcs pc next o1 o2 od (lane + 1) n (cnt + Bool.to_int (p' = next))
  end

let rec s_or (wf : Wavefront.t) (regs : int array) (pcs : int array)
    (pc : int) next o1 o2 od lane n cnt =
  if lane >= n then begin
    wf.Wavefront.sel_pc <- next;
    wf.Wavefront.sel_cnt <- cnt;
    wf.Wavefront.sel_valid <- true
  end
  else begin
    let p = Array.unsafe_get pcs lane in
    let msk = -(Bool.to_int (p = pc)) in
    let a = Array.unsafe_get regs (o1 + lane)
    and b = Array.unsafe_get regs (o2 + lane) in
    let v = a lor b in
    let old = Array.unsafe_get regs (od + lane) in
    Array.unsafe_set regs (od + lane) (old lxor ((old lxor v) land msk));
    let p' = p lxor ((p lxor next) land msk) in
    Array.unsafe_set pcs lane p';
    s_or wf regs pcs pc next o1 o2 od (lane + 1) n (cnt + Bool.to_int (p' = next))
  end

let rec s_slt (wf : Wavefront.t) (regs : int array) (pcs : int array)
    (pc : int) next o1 o2 od lane n cnt =
  if lane >= n then begin
    wf.Wavefront.sel_pc <- next;
    wf.Wavefront.sel_cnt <- cnt;
    wf.Wavefront.sel_valid <- true
  end
  else begin
    let p = Array.unsafe_get pcs lane in
    let msk = -(Bool.to_int (p = pc)) in
    let a = Array.unsafe_get regs (o1 + lane)
    and b = Array.unsafe_get regs (o2 + lane) in
    let v = Bool.to_int (a < b) in
    let old = Array.unsafe_get regs (od + lane) in
    Array.unsafe_set regs (od + lane) (old lxor ((old lxor v) land msk));
    let p' = p lxor ((p lxor next) land msk) in
    Array.unsafe_set pcs lane p';
    s_slt wf regs pcs pc next o1 o2 od (lane + 1) n (cnt + Bool.to_int (p' = next))
  end

let rec s_xor (wf : Wavefront.t) (regs : int array) (pcs : int array)
    (pc : int) next o1 o2 od lane n cnt =
  if lane >= n then begin
    wf.Wavefront.sel_pc <- next;
    wf.Wavefront.sel_cnt <- cnt;
    wf.Wavefront.sel_valid <- true
  end
  else begin
    let p = Array.unsafe_get pcs lane in
    let msk = -(Bool.to_int (p = pc)) in
    let a = Array.unsafe_get regs (o1 + lane)
    and b = Array.unsafe_get regs (o2 + lane) in
    let v = a lxor b in
    let old = Array.unsafe_get regs (od + lane) in
    Array.unsafe_set regs (od + lane) (old lxor ((old lxor v) land msk));
    let p' = p lxor ((p lxor next) land msk) in
    Array.unsafe_set pcs lane p';
    s_xor wf regs pcs pc next o1 o2 od (lane + 1) n (cnt + Bool.to_int (p' = next))
  end

let rec s_gen op (wf : Wavefront.t) (regs : int array) (pcs : int array)
    (pc : int) next o1 o2 od lane n cnt =
  if lane >= n then begin
    wf.Wavefront.sel_pc <- next;
    wf.Wavefront.sel_cnt <- cnt;
    wf.Wavefront.sel_valid <- true
  end
  else begin
    let p = Array.unsafe_get pcs lane in
    if p = pc then begin
      let a = Array.unsafe_get regs (o1 + lane)
      and b = Array.unsafe_get regs (o2 + lane) in
      Array.unsafe_set regs (od + lane) (Wavefront.alu op a b);
      Array.unsafe_set pcs lane next;
      s_gen op wf regs pcs pc next o1 o2 od (lane + 1) n (cnt + 1)
    end
    else if p = next then s_gen op wf regs pcs pc next o1 o2 od (lane + 1) n (cnt + 1)
    else s_gen op wf regs pcs pc next o1 o2 od (lane + 1) n cnt
  end

let rec si_add (wf : Wavefront.t) (regs : int array) (pcs : int array)
    (pc : int) next o1 b od lane n cnt =
  if lane >= n then begin
    wf.Wavefront.sel_pc <- next;
    wf.Wavefront.sel_cnt <- cnt;
    wf.Wavefront.sel_valid <- true
  end
  else begin
    let p = Array.unsafe_get pcs lane in
    let msk = -(Bool.to_int (p = pc)) in
    let a = Array.unsafe_get regs (o1 + lane) in
    let v = I32.sx (a + b) in
    let old = Array.unsafe_get regs (od + lane) in
    Array.unsafe_set regs (od + lane) (old lxor ((old lxor v) land msk));
    let p' = p lxor ((p lxor next) land msk) in
    Array.unsafe_set pcs lane p';
    si_add wf regs pcs pc next o1 b od (lane + 1) n (cnt + Bool.to_int (p' = next))
  end

let rec si_xor (wf : Wavefront.t) (regs : int array) (pcs : int array)
    (pc : int) next o1 b od lane n cnt =
  if lane >= n then begin
    wf.Wavefront.sel_pc <- next;
    wf.Wavefront.sel_cnt <- cnt;
    wf.Wavefront.sel_valid <- true
  end
  else begin
    let p = Array.unsafe_get pcs lane in
    let msk = -(Bool.to_int (p = pc)) in
    let a = Array.unsafe_get regs (o1 + lane) in
    let v = a lxor b in
    let old = Array.unsafe_get regs (od + lane) in
    Array.unsafe_set regs (od + lane) (old lxor ((old lxor v) land msk));
    let p' = p lxor ((p lxor next) land msk) in
    Array.unsafe_set pcs lane p';
    si_xor wf regs pcs pc next o1 b od (lane + 1) n (cnt + Bool.to_int (p' = next))
  end

(* [bu] arrives pre-masked to unsigned 32-bit (loop-invariant). *)
let rec si_sltu (wf : Wavefront.t) (regs : int array) (pcs : int array)
    (pc : int) next o1 bu od lane n cnt =
  if lane >= n then begin
    wf.Wavefront.sel_pc <- next;
    wf.Wavefront.sel_cnt <- cnt;
    wf.Wavefront.sel_valid <- true
  end
  else begin
    let p = Array.unsafe_get pcs lane in
    let msk = -(Bool.to_int (p = pc)) in
    let a = Array.unsafe_get regs (o1 + lane) in
    let v = Bool.to_int (a land I32.mask < bu) in
    let old = Array.unsafe_get regs (od + lane) in
    Array.unsafe_set regs (od + lane) (old lxor ((old lxor v) land msk));
    let p' = p lxor ((p lxor next) land msk) in
    Array.unsafe_set pcs lane p';
    si_sltu wf regs pcs pc next o1 bu od (lane + 1) n (cnt + Bool.to_int (p' = next))
  end

let rec si_gen op (wf : Wavefront.t) (regs : int array) (pcs : int array)
    (pc : int) next o1 b od lane n cnt =
  if lane >= n then begin
    wf.Wavefront.sel_pc <- next;
    wf.Wavefront.sel_cnt <- cnt;
    wf.Wavefront.sel_valid <- true
  end
  else begin
    let p = Array.unsafe_get pcs lane in
    if p = pc then begin
      let a = Array.unsafe_get regs (o1 + lane) in
      Array.unsafe_set regs (od + lane) (Wavefront.alu op a b);
      Array.unsafe_set pcs lane next;
      si_gen op wf regs pcs pc next o1 b od (lane + 1) n (cnt + 1)
    end
    else if p = next then si_gen op wf regs pcs pc next o1 b od (lane + 1) n (cnt + 1)
    else si_gen op wf regs pcs pc next o1 b od (lane + 1) n cnt
  end

(* Sparse load-immediate / special fills: store one value per lane. *)
let rec s_fill (wf : Wavefront.t) (regs : int array) (pcs : int array)
    (pc : int) next od (v : int) lane n cnt =
  if lane >= n then begin
    wf.Wavefront.sel_pc <- next;
    wf.Wavefront.sel_cnt <- cnt;
    wf.Wavefront.sel_valid <- true
  end
  else begin
    let p = Array.unsafe_get pcs lane in
    let msk = -(Bool.to_int (p = pc)) in
    let old = Array.unsafe_get regs (od + lane) in
    Array.unsafe_set regs (od + lane) (old lxor ((old lxor v) land msk));
    let p' = p lxor ((p lxor next) land msk) in
    Array.unsafe_set pcs lane p';
    s_fill wf regs pcs pc next od v (lane + 1) n (cnt + Bool.to_int (p' = next))
  end

let rec s_lid (wf : Wavefront.t) (regs : int array) (pcs : int array)
    (pc : int) next od first lane n cnt =
  if lane >= n then begin
    wf.Wavefront.sel_pc <- next;
    wf.Wavefront.sel_cnt <- cnt;
    wf.Wavefront.sel_valid <- true
  end
  else begin
    let p = Array.unsafe_get pcs lane in
    let msk = -(Bool.to_int (p = pc)) in
    let v = first + lane in
    let old = Array.unsafe_get regs (od + lane) in
    Array.unsafe_set regs (od + lane) (old lxor ((old lxor v) land msk));
    let p' = p lxor ((p lxor next) land msk) in
    Array.unsafe_set pcs lane p';
    s_lid wf regs pcs pc next od first (lane + 1) n (cnt + Bool.to_int (p' = next))
  end

(* Move every lane at [pc] to [dst] (jump, barrier, ret). *)
let rec s_retarget (wf : Wavefront.t) (pcs : int array) (pc : int)
    (dst : int) lane n best cnt =
  if lane >= n then begin
    wf.Wavefront.sel_pc <- best;
    wf.Wavefront.sel_cnt <- cnt;
    wf.Wavefront.sel_valid <- true
  end
  else begin
    let p = Array.unsafe_get pcs lane in
    let p =
      if p = pc then begin
        Array.unsafe_set pcs lane dst;
        dst
      end
      else p
    in
    if p < best then s_retarget wf pcs pc dst (lane + 1) n p 1
    else if p > best then s_retarget wf pcs pc dst (lane + 1) n best cnt
    else s_retarget wf pcs pc dst (lane + 1) n best (cnt + 1)
  end

(* Sparse branches: lanes at [pc] move to [target]/[next]; the result
   records whether any lane took the branch. *)

let rec sb_lt (wf : Wavefront.t) (regs : int array) (pcs : int array)
    (pc : int) o1 o2 target next lane n any best cnt =
  if lane >= n then begin
    wf.Wavefront.sel_pc <- best;
    wf.Wavefront.sel_cnt <- cnt;
    wf.Wavefront.sel_valid <- true;
    any
  end
  else begin
    let p = Array.unsafe_get pcs lane in
    if p = pc then
      if
        Array.unsafe_get regs (o1 + lane) < Array.unsafe_get regs (o2 + lane)
      then begin
        Array.unsafe_set pcs lane target;
        if target < best then sb_lt wf regs pcs pc o1 o2 target next (lane + 1) n true target 1
        else if target > best then sb_lt wf regs pcs pc o1 o2 target next (lane + 1) n true best cnt
        else sb_lt wf regs pcs pc o1 o2 target next (lane + 1) n true best (cnt + 1)
      end
      else begin
        Array.unsafe_set pcs lane next;
        if next < best then sb_lt wf regs pcs pc o1 o2 target next (lane + 1) n any next 1
        else if next > best then sb_lt wf regs pcs pc o1 o2 target next (lane + 1) n any best cnt
        else sb_lt wf regs pcs pc o1 o2 target next (lane + 1) n any best (cnt + 1)
      end
    else if p < best then sb_lt wf regs pcs pc o1 o2 target next (lane + 1) n any p 1
    else if p > best then sb_lt wf regs pcs pc o1 o2 target next (lane + 1) n any best cnt
    else sb_lt wf regs pcs pc o1 o2 target next (lane + 1) n any best (cnt + 1)
  end

let rec sb_ge (wf : Wavefront.t) (regs : int array) (pcs : int array)
    (pc : int) o1 o2 target next lane n any best cnt =
  if lane >= n then begin
    wf.Wavefront.sel_pc <- best;
    wf.Wavefront.sel_cnt <- cnt;
    wf.Wavefront.sel_valid <- true;
    any
  end
  else begin
    let p = Array.unsafe_get pcs lane in
    if p = pc then
      if
        Array.unsafe_get regs (o1 + lane) >= Array.unsafe_get regs (o2 + lane)
      then begin
        Array.unsafe_set pcs lane target;
        if target < best then sb_ge wf regs pcs pc o1 o2 target next (lane + 1) n true target 1
        else if target > best then sb_ge wf regs pcs pc o1 o2 target next (lane + 1) n true best cnt
        else sb_ge wf regs pcs pc o1 o2 target next (lane + 1) n true best (cnt + 1)
      end
      else begin
        Array.unsafe_set pcs lane next;
        if next < best then sb_ge wf regs pcs pc o1 o2 target next (lane + 1) n any next 1
        else if next > best then sb_ge wf regs pcs pc o1 o2 target next (lane + 1) n any best cnt
        else sb_ge wf regs pcs pc o1 o2 target next (lane + 1) n any best (cnt + 1)
      end
    else if p < best then sb_ge wf regs pcs pc o1 o2 target next (lane + 1) n any p 1
    else if p > best then sb_ge wf regs pcs pc o1 o2 target next (lane + 1) n any best cnt
    else sb_ge wf regs pcs pc o1 o2 target next (lane + 1) n any best (cnt + 1)
  end

let rec sb_eq (wf : Wavefront.t) (regs : int array) (pcs : int array)
    (pc : int) o1 o2 target next lane n any best cnt =
  if lane >= n then begin
    wf.Wavefront.sel_pc <- best;
    wf.Wavefront.sel_cnt <- cnt;
    wf.Wavefront.sel_valid <- true;
    any
  end
  else begin
    let p = Array.unsafe_get pcs lane in
    if p = pc then
      if
        Array.unsafe_get regs (o1 + lane) = Array.unsafe_get regs (o2 + lane)
      then begin
        Array.unsafe_set pcs lane target;
        if target < best then sb_eq wf regs pcs pc o1 o2 target next (lane + 1) n true target 1
        else if target > best then sb_eq wf regs pcs pc o1 o2 target next (lane + 1) n true best cnt
        else sb_eq wf regs pcs pc o1 o2 target next (lane + 1) n true best (cnt + 1)
      end
      else begin
        Array.unsafe_set pcs lane next;
        if next < best then sb_eq wf regs pcs pc o1 o2 target next (lane + 1) n any next 1
        else if next > best then sb_eq wf regs pcs pc o1 o2 target next (lane + 1) n any best cnt
        else sb_eq wf regs pcs pc o1 o2 target next (lane + 1) n any best (cnt + 1)
      end
    else if p < best then sb_eq wf regs pcs pc o1 o2 target next (lane + 1) n any p 1
    else if p > best then sb_eq wf regs pcs pc o1 o2 target next (lane + 1) n any best cnt
    else sb_eq wf regs pcs pc o1 o2 target next (lane + 1) n any best (cnt + 1)
  end

let rec sb_ne (wf : Wavefront.t) (regs : int array) (pcs : int array)
    (pc : int) o1 o2 target next lane n any best cnt =
  if lane >= n then begin
    wf.Wavefront.sel_pc <- best;
    wf.Wavefront.sel_cnt <- cnt;
    wf.Wavefront.sel_valid <- true;
    any
  end
  else begin
    let p = Array.unsafe_get pcs lane in
    if p = pc then
      if
        Array.unsafe_get regs (o1 + lane) <> Array.unsafe_get regs (o2 + lane)
      then begin
        Array.unsafe_set pcs lane target;
        if target < best then sb_ne wf regs pcs pc o1 o2 target next (lane + 1) n true target 1
        else if target > best then sb_ne wf regs pcs pc o1 o2 target next (lane + 1) n true best cnt
        else sb_ne wf regs pcs pc o1 o2 target next (lane + 1) n true best (cnt + 1)
      end
      else begin
        Array.unsafe_set pcs lane next;
        if next < best then sb_ne wf regs pcs pc o1 o2 target next (lane + 1) n any next 1
        else if next > best then sb_ne wf regs pcs pc o1 o2 target next (lane + 1) n any best cnt
        else sb_ne wf regs pcs pc o1 o2 target next (lane + 1) n any best (cnt + 1)
      end
    else if p < best then sb_ne wf regs pcs pc o1 o2 target next (lane + 1) n any p 1
    else if p > best then sb_ne wf regs pcs pc o1 o2 target next (lane + 1) n any best cnt
    else sb_ne wf regs pcs pc o1 o2 target next (lane + 1) n any best (cnt + 1)
  end

let rec sb_gen c (wf : Wavefront.t) (regs : int array) (pcs : int array)
    (pc : int) o1 o2 target next lane n any best cnt =
  if lane >= n then begin
    wf.Wavefront.sel_pc <- best;
    wf.Wavefront.sel_cnt <- cnt;
    wf.Wavefront.sel_valid <- true;
    any
  end
  else begin
    let p = Array.unsafe_get pcs lane in
    if p = pc then
      if
        Wavefront.cond_holds c
          (Array.unsafe_get regs (o1 + lane))
          (Array.unsafe_get regs (o2 + lane))
      then begin
        Array.unsafe_set pcs lane target;
        if target < best then sb_gen c wf regs pcs pc o1 o2 target next (lane + 1) n true target 1
        else if target > best then sb_gen c wf regs pcs pc o1 o2 target next (lane + 1) n true best cnt
        else sb_gen c wf regs pcs pc o1 o2 target next (lane + 1) n true best (cnt + 1)
      end
      else begin
        Array.unsafe_set pcs lane next;
        if next < best then sb_gen c wf regs pcs pc o1 o2 target next (lane + 1) n any next 1
        else if next > best then sb_gen c wf regs pcs pc o1 o2 target next (lane + 1) n any best cnt
        else sb_gen c wf regs pcs pc o1 o2 target next (lane + 1) n any best (cnt + 1)
      end
    else if p < best then sb_gen c wf regs pcs pc o1 o2 target next (lane + 1) n any p 1
    else if p > best then sb_gen c wf regs pcs pc o1 o2 target next (lane + 1) n any best cnt
    else sb_gen c wf regs pcs pc o1 o2 target next (lane + 1) n any best (cnt + 1)
  end

(* After a dense mixed branch writes per-lane pcs (every lane moves to
   [target] or [next]), the selection cache follows analytically from
   the taken-lane count. *)
let set_split_sel (wf : Wavefront.t) target next tk size =
  (if target < next then begin
     wf.Wavefront.sel_pc <- target;
     wf.Wavefront.sel_cnt <- tk
   end
   else if next < target then begin
     wf.Wavefront.sel_pc <- next;
     wf.Wavefront.sel_cnt <- size - tk
   end
   else begin
     (* a branch to its own fall-through: both sides land together *)
     wf.Wavefront.sel_pc <- next;
     wf.Wavefront.sel_cnt <- size
   end);
  wf.Wavefront.sel_valid <- true

(* ------------------------------------------------------------------ *)

let compile (dprog : Fgpu_predecode.t array) ~wf_size:size ~(mem : int array)
    ~line_words : t =
  let n = Array.length dprog in
  let line_bytes = line_words * 4 in
  let mem_words = Array.length mem in
  let noop : op = fun _ _ -> () in
  let dense = Array.make n noop in
  let sparse = Array.make n noop in
  let flags = Array.make n 0 in
  for pc = 0 to n - 1 do
    let d = dprog.(pc) in
    let next = pc + 1 in
    flags.(pc) <-
      (if d.Fgpu_predecode.is_store then 1 else 0)
      lor (if d.Fgpu_predecode.uses_div then 2 else 0)
      lor if d.Fgpu_predecode.uses_mul then 4 else 0;
    let dn, sp =
      match d.Fgpu_predecode.kind with
      | Fgpu_predecode.KAlu ->
          let od = dst_off ~size d.Fgpu_predecode.rd
          and o1 = d.Fgpu_predecode.rs1 * size
          and o2 = d.Fgpu_predecode.rs2 * size
          and aop = d.Fgpu_predecode.aop in
          let srcs = (1 lsl d.Fgpu_predecode.rs1) lor (1 lsl d.Fgpu_predecode.rs2)
          and dbit = dst_bit d.Fgpu_predecode.rd in
          let dn : op =
            match aop with
            | Fgpu_isa.Add ->
                fun wf _ ->
                  if not (scalar_alu wf next aop srcs o1 o2 od dbit size) then
                    d_add wf.Wavefront.regs o1 o2 od 0 size
            | Fgpu_isa.Sub ->
                fun wf _ ->
                  if not (scalar_alu wf next aop srcs o1 o2 od dbit size) then
                    d_sub wf.Wavefront.regs o1 o2 od 0 size
            | Fgpu_isa.Mul ->
                fun wf _ ->
                  if not (scalar_alu wf next aop srcs o1 o2 od dbit size) then
                    d_mul wf.Wavefront.regs o1 o2 od 0 size
            | Fgpu_isa.And ->
                fun wf _ ->
                  if not (scalar_alu wf next aop srcs o1 o2 od dbit size) then
                    d_and wf.Wavefront.regs o1 o2 od 0 size
            | Fgpu_isa.Or ->
                fun wf _ ->
                  if not (scalar_alu wf next aop srcs o1 o2 od dbit size) then
                    d_or wf.Wavefront.regs o1 o2 od 0 size
            | Fgpu_isa.Slt ->
                fun wf _ ->
                  if not (scalar_alu wf next aop srcs o1 o2 od dbit size) then
                    d_slt wf.Wavefront.regs o1 o2 od 0 size
            | Fgpu_isa.Sll ->
                fun wf _ ->
                  if not (scalar_alu wf next aop srcs o1 o2 od dbit size) then
                    d_sll wf.Wavefront.regs o1 o2 od 0 size
            | Fgpu_isa.Xor ->
                fun wf _ ->
                  if not (scalar_alu wf next aop srcs o1 o2 od dbit size) then
                    d_xor wf.Wavefront.regs o1 o2 od 0 size
            | op ->
                fun wf _ ->
                  if not (scalar_alu wf next aop srcs o1 o2 od dbit size) then
                    d_gen op wf.Wavefront.regs o1 o2 od 0 size
          in
          let sp : op =
            match d.Fgpu_predecode.aop with
            | Fgpu_isa.Add ->
                fun wf _ ->
                  clear_uni wf dbit;
                  s_add wf wf.Wavefront.regs wf.Wavefront.pcs pc next o1 o2 od 0 size
                    0
            | Fgpu_isa.Sub ->
                fun wf _ ->
                  clear_uni wf dbit;
                  s_sub wf wf.Wavefront.regs wf.Wavefront.pcs pc next o1 o2 od 0 size
                    0
            | Fgpu_isa.Mul ->
                fun wf _ ->
                  clear_uni wf dbit;
                  s_mul wf wf.Wavefront.regs wf.Wavefront.pcs pc next o1 o2 od 0 size
                    0
            | Fgpu_isa.And ->
                fun wf _ ->
                  clear_uni wf dbit;
                  s_and wf wf.Wavefront.regs wf.Wavefront.pcs pc next o1 o2 od 0 size
                    0
            | Fgpu_isa.Or ->
                fun wf _ ->
                  clear_uni wf dbit;
                  s_or wf wf.Wavefront.regs wf.Wavefront.pcs pc next o1 o2 od 0 size
                    0
            | Fgpu_isa.Slt ->
                fun wf _ ->
                  clear_uni wf dbit;
                  s_slt wf wf.Wavefront.regs wf.Wavefront.pcs pc next o1 o2 od 0 size
                    0
            | Fgpu_isa.Xor ->
                fun wf _ ->
                  clear_uni wf dbit;
                  s_xor wf wf.Wavefront.regs wf.Wavefront.pcs pc next o1 o2 od 0 size
                    0
            | op ->
                fun wf _ ->
                  clear_uni wf dbit;
                  s_gen op wf wf.Wavefront.regs wf.Wavefront.pcs pc next o1 o2 od 0
                    size 0
          in
          (dn, sp)
      | Fgpu_predecode.KAlui ->
          let od = dst_off ~size d.Fgpu_predecode.rd
          and o1 = d.Fgpu_predecode.rs1 * size
          and b = d.Fgpu_predecode.imm
          and aop = d.Fgpu_predecode.aop in
          let srcs = 1 lsl d.Fgpu_predecode.rs1
          and dbit = dst_bit d.Fgpu_predecode.rd in
          let dn : op =
            match aop with
            | Fgpu_isa.Add ->
                fun wf _ ->
                  if not (scalar_alui wf next aop srcs o1 b od dbit size) then
                    di_add wf.Wavefront.regs o1 b od 0 size
            | Fgpu_isa.And ->
                fun wf _ ->
                  if not (scalar_alui wf next aop srcs o1 b od dbit size) then
                    di_and wf.Wavefront.regs o1 b od 0 size
            | Fgpu_isa.Srl ->
                let sh = b land 31 in
                fun wf _ ->
                  if not (scalar_alui wf next aop srcs o1 b od dbit size) then
                    di_srl wf.Wavefront.regs o1 sh od 0 size
            | Fgpu_isa.Sll ->
                let sh = b land 31 in
                fun wf _ ->
                  if not (scalar_alui wf next aop srcs o1 b od dbit size) then
                    di_sll wf.Wavefront.regs o1 sh od 0 size
            | Fgpu_isa.Xor ->
                fun wf _ ->
                  if not (scalar_alui wf next aop srcs o1 b od dbit size) then
                    di_xor wf.Wavefront.regs o1 b od 0 size
            | Fgpu_isa.Sltu ->
                let bu = b land I32.mask in
                fun wf _ ->
                  if not (scalar_alui wf next aop srcs o1 b od dbit size) then
                    di_sltu wf.Wavefront.regs o1 bu od 0 size
            | op ->
                fun wf _ ->
                  if not (scalar_alui wf next aop srcs o1 b od dbit size) then
                    di_gen op wf.Wavefront.regs o1 b od 0 size
          in
          let sp : op =
            match d.Fgpu_predecode.aop with
            | Fgpu_isa.Add ->
                fun wf _ ->
                  clear_uni wf dbit;
                  si_add wf wf.Wavefront.regs wf.Wavefront.pcs pc next o1 b od 0
                    size 0
            | Fgpu_isa.Xor ->
                fun wf _ ->
                  clear_uni wf dbit;
                  si_xor wf wf.Wavefront.regs wf.Wavefront.pcs pc next o1 b od 0
                    size 0
            | Fgpu_isa.Sltu ->
                let bu = b land I32.mask in
                fun wf _ ->
                  clear_uni wf dbit;
                  si_sltu wf wf.Wavefront.regs wf.Wavefront.pcs pc next o1 bu od 0
                    size 0
            | op ->
                fun wf _ ->
                  clear_uni wf dbit;
                  si_gen op wf wf.Wavefront.regs wf.Wavefront.pcs pc next o1 b od 0
                    size 0
          in
          (dn, sp)
      | Fgpu_predecode.KLoadImm ->
          let od = dst_off ~size d.Fgpu_predecode.rd
          and v = d.Fgpu_predecode.imm
          and dbit = dst_bit d.Fgpu_predecode.rd in
          let dn : op =
           fun wf _ ->
            wf.Wavefront.conv_pc <- next;
            fill wf.Wavefront.regs od v 0 size;
            wf.Wavefront.uni <- wf.Wavefront.uni lor dbit
          in
          let sp : op =
           fun wf _ ->
            clear_uni wf dbit;
            s_fill wf wf.Wavefront.regs wf.Wavefront.pcs pc next od v 0
                    size 0
          in
          (dn, sp)
      | Fgpu_predecode.KLw ->
          let od = dst_off ~size d.Fgpu_predecode.rd
          and o1 = d.Fgpu_predecode.rs1 * size
          and off = d.Fgpu_predecode.imm
          and abit = 1 lsl d.Fgpu_predecode.rs1
          and dbit = dst_bit d.Fgpu_predecode.rd in
          (* a uniform address is one access: lane 0 is checked first
             either way, so the line count, the fault and the state it
             leaves match the lane loop's *)
          let dn : op =
           fun wf out ->
            wf.Wavefront.conv_pc <- next;
            let regs = wf.Wavefront.regs and u = wf.Wavefront.uni in
            if u land abit <> 0 then begin
              let w =
                Wavefront.coalesce_and_check out ~line_bytes ~mem_words
                  (Array.unsafe_get regs o1 + off)
              in
              fill regs od (Array.unsafe_get mem w) 0 size;
              wf.Wavefront.uni <- u lor dbit
            end
            else begin
              clear_uni wf dbit;
              for lane = 0 to size - 1 do
                let addr = Array.unsafe_get regs (o1 + lane) + off in
                let w =
                  Wavefront.coalesce_and_check out ~line_bytes ~mem_words addr
                in
                Array.unsafe_set regs (od + lane) (Array.unsafe_get mem w)
              done
            end
          in
          let sp : op =
           fun wf out ->
            wf.Wavefront.sel_valid <- false;
            clear_uni wf dbit;
            let regs = wf.Wavefront.regs and pcs = wf.Wavefront.pcs in
            for lane = 0 to size - 1 do
              if Array.unsafe_get pcs lane = pc then begin
                let addr = Array.unsafe_get regs (o1 + lane) + off in
                let w =
                  Wavefront.coalesce_and_check out ~line_bytes ~mem_words addr
                in
                Array.unsafe_set regs (od + lane) (Array.unsafe_get mem w);
                Array.unsafe_set pcs lane next
              end
            done
          in
          (dn, sp)
      | Fgpu_predecode.KSw ->
          (* the store-data register travels in the rd field: a read *)
          let o2 = d.Fgpu_predecode.rd * size
          and o1 = d.Fgpu_predecode.rs1 * size
          and off = d.Fgpu_predecode.imm in
          let dn : op =
           fun wf out ->
            wf.Wavefront.conv_pc <- next;
            let regs = wf.Wavefront.regs in
            for lane = 0 to size - 1 do
              let addr = Array.unsafe_get regs (o1 + lane) + off in
              let w =
                Wavefront.coalesce_and_check out ~line_bytes ~mem_words addr
              in
              Array.unsafe_set mem w (Array.unsafe_get regs (o2 + lane))
            done
          in
          let sp : op =
           fun wf out ->
            wf.Wavefront.sel_valid <- false;
            let regs = wf.Wavefront.regs and pcs = wf.Wavefront.pcs in
            for lane = 0 to size - 1 do
              if Array.unsafe_get pcs lane = pc then begin
                let addr = Array.unsafe_get regs (o1 + lane) + off in
                let w =
                  Wavefront.coalesce_and_check out ~line_bytes ~mem_words addr
                in
                Array.unsafe_set mem w (Array.unsafe_get regs (o2 + lane));
                Array.unsafe_set pcs lane next
              end
            done
          in
          (dn, sp)
      | Fgpu_predecode.KBranch ->
          let o1 = d.Fgpu_predecode.rs1 * size
          and o2 = d.Fgpu_predecode.rd * size
          and target = pc + 1 + d.Fgpu_predecode.imm
          and c = d.Fgpu_predecode.cnd in
          let srcs = (1 lsl d.Fgpu_predecode.rs1) lor (1 lsl d.Fgpu_predecode.rd) in
          (* dense: uniform operands decide the branch once
             ({!branch_scalar}); otherwise the first pass only counts,
             and real per-lane pcs are written only on a mixed
             outcome, so uniform branches — the common case — never
             touch [pcs] at all (it stays stale under [conv_pc], which
             every external reader materialises first) *)
          let dn : op =
            match c with
            | Fgpu_isa.Lt ->
                fun wf out ->
                  if wf.Wavefront.uni land srcs = srcs then
                    branch_scalar wf out c o1 o2 target next
                  else begin
                    let regs = wf.Wavefront.regs in
                    let tk = c_lt regs o1 o2 0 size 0 in
                    if tk = 0 then wf.Wavefront.conv_pc <- next
                    else if tk = size then wf.Wavefront.conv_pc <- target
                    else begin
                      wf.Wavefront.conv_pc <- -1;
                      w_lt regs wf.Wavefront.pcs o1 o2 target next 0 size;
                      set_split_sel wf target next tk size
                    end;
                    out.Wavefront.taken_branch <- tk > 0
                  end
            | Fgpu_isa.Ge ->
                fun wf out ->
                  if wf.Wavefront.uni land srcs = srcs then
                    branch_scalar wf out c o1 o2 target next
                  else begin
                    let regs = wf.Wavefront.regs in
                    let tk = c_ge regs o1 o2 0 size 0 in
                    if tk = 0 then wf.Wavefront.conv_pc <- next
                    else if tk = size then wf.Wavefront.conv_pc <- target
                    else begin
                      wf.Wavefront.conv_pc <- -1;
                      w_ge regs wf.Wavefront.pcs o1 o2 target next 0 size;
                      set_split_sel wf target next tk size
                    end;
                    out.Wavefront.taken_branch <- tk > 0
                  end
            | Fgpu_isa.Eq ->
                fun wf out ->
                  if wf.Wavefront.uni land srcs = srcs then
                    branch_scalar wf out c o1 o2 target next
                  else begin
                    let regs = wf.Wavefront.regs in
                    let tk =
                      b_eq regs wf.Wavefront.pcs o1 o2 target next 0 size 0
                    in
                    if tk = 0 then wf.Wavefront.conv_pc <- next
                    else if tk = size then wf.Wavefront.conv_pc <- target
                    else begin
                      wf.Wavefront.conv_pc <- -1;
                      set_split_sel wf target next tk size
                    end;
                    out.Wavefront.taken_branch <- tk > 0
                  end
            | Fgpu_isa.Ne ->
                fun wf out ->
                  if wf.Wavefront.uni land srcs = srcs then
                    branch_scalar wf out c o1 o2 target next
                  else begin
                    let regs = wf.Wavefront.regs in
                    let tk =
                      b_ne regs wf.Wavefront.pcs o1 o2 target next 0 size 0
                    in
                    if tk = 0 then wf.Wavefront.conv_pc <- next
                    else if tk = size then wf.Wavefront.conv_pc <- target
                    else begin
                      wf.Wavefront.conv_pc <- -1;
                      set_split_sel wf target next tk size
                    end;
                    out.Wavefront.taken_branch <- tk > 0
                  end
            | c ->
                fun wf out ->
                  if wf.Wavefront.uni land srcs = srcs then
                    branch_scalar wf out c o1 o2 target next
                  else begin
                    let regs = wf.Wavefront.regs in
                    let tk = c_gen c regs o1 o2 0 size 0 in
                    if tk = 0 then wf.Wavefront.conv_pc <- next
                    else if tk = size then wf.Wavefront.conv_pc <- target
                    else begin
                      wf.Wavefront.conv_pc <- -1;
                      w_gen c regs wf.Wavefront.pcs o1 o2 target next 0 size;
                      set_split_sel wf target next tk size
                    end;
                    out.Wavefront.taken_branch <- tk > 0
                  end
          in
          let sp : op =
            match c with
            | Fgpu_isa.Lt ->
                fun wf out ->
                  out.Wavefront.taken_branch <-
                    sb_lt wf wf.Wavefront.regs wf.Wavefront.pcs pc o1 o2 target
                      next 0 size false Wavefront.done_pc 0
            | Fgpu_isa.Ge ->
                fun wf out ->
                  out.Wavefront.taken_branch <-
                    sb_ge wf wf.Wavefront.regs wf.Wavefront.pcs pc o1 o2 target
                      next 0 size false Wavefront.done_pc 0
            | Fgpu_isa.Eq ->
                fun wf out ->
                  out.Wavefront.taken_branch <-
                    sb_eq wf wf.Wavefront.regs wf.Wavefront.pcs pc o1 o2 target
                      next 0 size false Wavefront.done_pc 0
            | Fgpu_isa.Ne ->
                fun wf out ->
                  out.Wavefront.taken_branch <-
                    sb_ne wf wf.Wavefront.regs wf.Wavefront.pcs pc o1 o2 target
                      next 0 size false Wavefront.done_pc 0
            | c ->
                fun wf out ->
                  out.Wavefront.taken_branch <-
                    sb_gen c wf wf.Wavefront.regs wf.Wavefront.pcs pc o1 o2 target
                      next 0 size false Wavefront.done_pc 0
          in
          (dn, sp)
      | Fgpu_predecode.KJump ->
          let target = d.Fgpu_predecode.imm in
          let dn : op =
           fun wf out ->
            wf.Wavefront.conv_pc <- target;
            out.Wavefront.taken_branch <- true
          in
          let sp : op =
           fun wf out ->
            s_retarget wf wf.Wavefront.pcs pc target 0 size Wavefront.done_pc 0;
            out.Wavefront.taken_branch <- true
          in
          (dn, sp)
      | Fgpu_predecode.KSpecial ->
          let od = dst_off ~size d.Fgpu_predecode.rd
          and s = d.Fgpu_predecode.sp
          and dbit = dst_bit d.Fgpu_predecode.rd in
          (* every special but the local id is one value per wavefront *)
          let broadcast (wf : Wavefront.t) v =
            wf.Wavefront.conv_pc <- next;
            fill wf.Wavefront.regs od v 0 size;
            wf.Wavefront.uni <- wf.Wavefront.uni lor dbit
          in
          let dn : op =
            match s with
            | Fgpu_isa.Lid ->
                fun wf _ ->
                  wf.Wavefront.conv_pc <- next;
                  clear_uni wf dbit;
                  d_lid wf.Wavefront.regs od
                    (wf.Wavefront.wf_index * size)
                    0 size
            | Fgpu_isa.Wgid -> fun wf _ -> broadcast wf wf.Wavefront.wg_id
            | Fgpu_isa.Wgoff -> fun wf _ -> broadcast wf wf.Wavefront.wg_offset
            | Fgpu_isa.Wgsize -> fun wf _ -> broadcast wf wf.Wavefront.wg_size
            | Fgpu_isa.Gsize -> fun wf _ -> broadcast wf wf.Wavefront.global_size
          in
          let sp : op =
            match s with
            | Fgpu_isa.Lid ->
                fun wf _ ->
                  clear_uni wf dbit;
                  s_lid wf wf.Wavefront.regs wf.Wavefront.pcs pc next od
                    (wf.Wavefront.wf_index * size)
                    0 size 0
            | Fgpu_isa.Wgid ->
                fun wf _ ->
                  clear_uni wf dbit;
                  s_fill wf wf.Wavefront.regs wf.Wavefront.pcs pc next od wf.Wavefront.wg_id 0
                    size 0
            | Fgpu_isa.Wgoff ->
                fun wf _ ->
                  clear_uni wf dbit;
                  s_fill wf wf.Wavefront.regs wf.Wavefront.pcs pc next od wf.Wavefront.wg_offset 0
                    size 0
            | Fgpu_isa.Wgsize ->
                fun wf _ ->
                  clear_uni wf dbit;
                  s_fill wf wf.Wavefront.regs wf.Wavefront.pcs pc next od wf.Wavefront.wg_size 0
                    size 0
            | Fgpu_isa.Gsize ->
                fun wf _ ->
                  clear_uni wf dbit;
                  s_fill wf wf.Wavefront.regs wf.Wavefront.pcs pc next od wf.Wavefront.global_size 0
                    size 0
          in
          (dn, sp)
      | Fgpu_predecode.KBarrier ->
          let dn : op =
           fun wf out ->
            wf.Wavefront.conv_pc <- next;
            out.Wavefront.hit_barrier <- true
          in
          let sp : op =
           fun wf out ->
            s_retarget wf wf.Wavefront.pcs pc next 0 size Wavefront.done_pc 0;
            out.Wavefront.hit_barrier <- true
          in
          (dn, sp)
      | Fgpu_predecode.KRet ->
          let dn : op =
           fun wf _ ->
            Array.fill wf.Wavefront.pcs 0 size Wavefront.done_pc;
            wf.Wavefront.conv_pc <- -1;
            wf.Wavefront.sel_pc <- Wavefront.done_pc;
            wf.Wavefront.sel_cnt <- size;
            wf.Wavefront.sel_valid <- true;
            wf.Wavefront.live_lanes <- 0
          in
          let sp : op =
           fun wf out ->
            s_retarget wf wf.Wavefront.pcs pc Wavefront.done_pc 0 size Wavefront.done_pc 0;
            wf.Wavefront.live_lanes <-
              wf.Wavefront.live_lanes - out.Wavefront.executed_lanes
          in
          (dn, sp)
    in
    dense.(pc) <- dn;
    sparse.(pc) <- sp
  done;
  { dense; sparse; flags; prog_len = n }

(* Issue prologue/epilogue shared with the interpreting path: validate
   the pc, reset the outcome record, run the compiled lane loop, record
   retirement. *)
let issue_at (th : t) (wf : Wavefront.t) (out : Wavefront.outcome) pc executed
    : unit =
  if pc < 0 || pc >= th.prog_len then fault "pc %d outside program" pc;
  let live_before = wf.Wavefront.live_lanes in
  let f = Array.unsafe_get th.flags pc in
  out.Wavefront.pc <- pc;
  out.Wavefront.mem_line_count <- 0;
  out.Wavefront.mem_is_store <- f land 1 <> 0;
  out.Wavefront.used_div <- f land 2 <> 0;
  out.Wavefront.used_mul <- f land 4 <> 0;
  out.Wavefront.taken_branch <- false;
  out.Wavefront.hit_barrier <- false;
  out.Wavefront.executed_lanes <- executed;
  out.Wavefront.partial_mask <- executed < live_before;
  (if wf.Wavefront.conv_pc >= 0 then (Array.unsafe_get th.dense pc) wf out
   else (Array.unsafe_get th.sparse pc) wf out);
  out.Wavefront.retired <- Wavefront.finished wf

(* The converged path reads [conv_pc]/[size] directly rather than
   through {!Wavefront.select_pc}, whose pair would be allocated on
   every issue. *)
let issue (th : t) (wf : Wavefront.t) (out : Wavefront.outcome) : unit =
  assert (not (Wavefront.finished wf));
  let conv = wf.Wavefront.conv_pc in
  if conv >= 0 then issue_at th wf out conv wf.Wavefront.size
  else
    let pc, executed = Wavefront.select_pc wf in
    issue_at th wf out pc executed
