(* Optimisation passes over the virtual IR.

   A small, conservative subset of what the paper's LLVM pipeline would
   do before code generation:

   - constant folding (arithmetic and comparisons on immediates, with
     the same division corner-case semantics as the executors);
   - algebraic simplification (x+0, x-0, x*1, x*0, shifts by 0, x|0,
     x&0, x^0);
   - copy propagation for single-assignment registers;
   - branch folding (conditions on two immediates become jumps or
     disappear);
   - dead-code elimination of defs whose register is never read.

   Passes iterate to a fixpoint (bounded), preserving the program's
   observable behaviour: stores, barriers, control flow and `Ret` are
   never removed.  [coalesce_moves] is separate: only the FGPU back end
   runs it. *)

let fold_binop op a b =
  let shift f = f a (Int32.to_int b land 31) in
  match op with
  | Ast.Add -> Some (Int32.add a b)
  | Ast.Sub -> Some (Int32.sub a b)
  | Ast.Mul -> Some (Int32.mul a b)
  | Ast.Div ->
      Some
        (if b = 0l then -1l
         else if a = Int32.min_int && b = -1l then Int32.min_int
         else Int32.div a b)
  | Ast.Rem ->
      Some
        (if b = 0l then a
         else if a = Int32.min_int && b = -1l then 0l
         else Int32.rem a b)
  | Ast.And -> Some (Int32.logand a b)
  | Ast.Or -> Some (Int32.logor a b)
  | Ast.Xor -> Some (Int32.logxor a b)
  | Ast.Shl -> Some (shift Int32.shift_left)
  | Ast.Shr -> Some (shift Int32.shift_right_logical)
  | Ast.Sra -> Some (shift Int32.shift_right)

let fold_cmp op a b =
  let c = Int32.compare a b in
  let r =
    match op with
    | Ast.Eq -> c = 0
    | Ast.Ne -> c <> 0
    | Ast.Lt -> c < 0
    | Ast.Le -> c <= 0
    | Ast.Gt -> c > 0
    | Ast.Ge -> c >= 0
  in
  if r then 1l else 0l

(* x op identity -> x; x op absorber -> constant *)
let simplify_binop op lhs rhs =
  match (op, lhs, rhs) with
  | Ast.Add, value, Vir.Imm 0l
  | Ast.Add, Vir.Imm 0l, value
  | Ast.Sub, value, Vir.Imm 0l
  | Ast.Or, value, Vir.Imm 0l
  | Ast.Or, Vir.Imm 0l, value
  | Ast.Xor, value, Vir.Imm 0l
  | Ast.Xor, Vir.Imm 0l, value
  | Ast.Shl, value, Vir.Imm 0l
  | Ast.Shr, value, Vir.Imm 0l
  | Ast.Sra, value, Vir.Imm 0l
  | Ast.Mul, value, Vir.Imm 1l
  | Ast.Mul, Vir.Imm 1l, value
  | Ast.Div, value, Vir.Imm 1l ->
      Some value
  | Ast.Mul, _, Vir.Imm 0l | Ast.Mul, Vir.Imm 0l, _ | Ast.And, _, Vir.Imm 0l
  | Ast.And, Vir.Imm 0l, _ ->
      Some (Vir.Imm 0l)
  | _ -> None

let constant_fold insns =
  List.filter_map
    (fun insn ->
      match insn with
      | Vir.Bin (op, d, Vir.Imm a, Vir.Imm b) -> (
          match fold_binop op a b with
          | Some v -> Some (Vir.Mov (d, Vir.Imm v))
          | None -> Some insn)
      | Vir.Bin (op, d, lhs, rhs) -> (
          match simplify_binop op lhs rhs with
          | Some value -> Some (Vir.Mov (d, value))
          | None -> Some insn)
      | Vir.Cmp (op, d, Vir.Imm a, Vir.Imm b) ->
          Some (Vir.Mov (d, Vir.Imm (fold_cmp op a b)))
      | Vir.Branch_if (op, Vir.Imm a, Vir.Imm b, label) ->
          if fold_cmp op a b = 1l then Some (Vir.Jump label) else None
      | _ -> Some insn)
    insns

(* How often each register occurs in [regs insn] over the program
   ([Vir.defs] or [Vir.uses]). *)
let occurrences regs insns =
  let counts = Hashtbl.create 64 in
  List.iter
    (fun insn ->
      List.iter
        (fun v ->
          Hashtbl.replace counts v
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts v)))
        (regs insn))
    insns;
  fun v -> Option.value ~default:0 (Hashtbl.find_opt counts v)

(* Registers assigned exactly once in the whole program. *)
let single_assignment insns =
  let defs = occurrences Vir.defs insns in
  fun v -> defs v = 1

(* Propagate `Mov (y, src)` into later uses of y, when both y and (if a
   register) src are single-assignment: their values cannot change
   between definition and use, even across loop back edges. *)
let copy_propagate insns =
  let single = single_assignment insns in
  let replacement = Hashtbl.create 16 in
  List.iter
    (fun insn ->
      match insn with
      | Vir.Mov (y, (Vir.Imm _ as src)) when single y ->
          Hashtbl.replace replacement y src
      | Vir.Mov (y, (Vir.Reg x as src)) when single y && single x ->
          Hashtbl.replace replacement y src
      | _ -> ())
    insns;
  (* resolve chains y -> x -> imm *)
  let rec resolve value =
    match value with
    | Vir.Reg v -> (
        match Hashtbl.find_opt replacement v with
        | Some next -> resolve next
        | None -> value)
    | Vir.Imm _ -> value
  in
  let subst value = resolve value in
  List.map
    (fun insn ->
      match insn with
      | Vir.Bin (op, d, a, b) -> Vir.Bin (op, d, subst a, subst b)
      | Vir.Cmp (op, d, a, b) -> Vir.Cmp (op, d, subst a, subst b)
      | Vir.Mov (d, v) -> Vir.Mov (d, subst v)
      | Vir.Load (d, buf, idx) -> Vir.Load (d, buf, subst idx)
      | Vir.Store (buf, idx, v) -> Vir.Store (buf, subst idx, subst v)
      | Vir.Branch_if (op, a, b, l) -> Vir.Branch_if (op, subst a, subst b, l)
      | Vir.Read_special _ | Vir.Read_param _ | Vir.Label _ | Vir.Jump _
      | Vir.Barrier | Vir.Ret ->
          insn)
    insns

(* Remove defs whose register is never read anywhere.  Loads are
   removable: the kernel language has no volatile reads. *)
let dead_code insns =
  let used = Hashtbl.create 64 in
  List.iter
    (fun insn -> List.iter (fun v -> Hashtbl.replace used v ()) (Vir.uses insn))
    insns;
  List.filter
    (fun insn ->
      match insn with
      | Vir.Bin (_, d, _, _)
      | Vir.Cmp (_, d, _, _)
      | Vir.Mov (d, _)
      | Vir.Load (d, _, _)
      | Vir.Read_special (_, d)
      | Vir.Read_param (_, d) ->
          Hashtbl.mem used d
      | Vir.Store _ | Vir.Label _ | Vir.Jump _ | Vir.Branch_if _ | Vir.Barrier
      | Vir.Ret ->
          true)
    insns

(* Drop a Jump that targets the label immediately following it. *)
let jump_threading insns =
  let rec go = function
    | Vir.Jump l1 :: (Vir.Label l2 :: _ as rest) when String.equal l1 l2 ->
        go rest
    | insn :: rest -> insn :: go rest
    | [] -> []
  in
  go insns

let run_once insns =
  insns |> copy_propagate |> constant_fold |> jump_threading |> dead_code

let max_passes = 8

let optimise (program : Vir.program) =
  let rec fixpoint insns passes =
    if passes = 0 then insns
    else
      let next = run_once insns in
      if next = insns then insns else fixpoint next (passes - 1)
  in
  { program with Vir.insns = fixpoint program.Vir.insns max_passes }

(* Move coalescing: `t <- e; y <- t` becomes `y <- e` when the move is
   the only read of t and t has no other def.  This is the loop-carried
   copy (`acc = acc + x`) that copy propagation leaves alone because y
   is assigned more than once; LLVM's register coalescer removes it as
   a matter of course.  The rewritten def still reads its operands
   before writing y, so `t <- y + x; y <- t` is safe.  A single def of
   t also rules out y = t, since the move would be a second one. *)
let coalesce_moves (program : Vir.program) =
  let insns = program.Vir.insns in
  let defs = occurrences Vir.defs insns and uses = occurrences Vir.uses insns in
  let retarget y = function
    | Vir.Bin (op, _, a, b) -> Vir.Bin (op, y, a, b)
    | Vir.Cmp (op, _, a, b) -> Vir.Cmp (op, y, a, b)
    | Vir.Load (_, buf, idx) -> Vir.Load (y, buf, idx)
    | insn -> insn
  in
  let rec go = function
    | ((Vir.Bin _ | Vir.Cmp _ | Vir.Load _) as insn)
      :: Vir.Mov (y, Vir.Reg t)
      :: rest
      when Vir.defs insn = [ t ] && defs t = 1 && uses t = 1 ->
        go (retarget y insn :: rest)
    | insn :: rest -> insn :: go rest
    | [] -> []
  in
  { program with Vir.insns = go insns }
