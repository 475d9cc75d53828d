(** Optimisation passes over the virtual IR: constant folding (with the
    targets' division corner-case semantics), algebraic simplification,
    copy propagation for single-assignment registers, branch folding,
    jump threading and dead-code elimination, iterated to a fixpoint.
    Stores, barriers, control flow and [Ret] are never removed. *)

val fold_binop : Ast.binop -> int32 -> int32 -> int32 option
val fold_cmp : Ast.cmpop -> int32 -> int32 -> int32

val optimise : Vir.program -> Vir.program
(** Semantics-preserving; see the property tests in
    [test/test_compiler.ml]. *)

val coalesce_moves : Vir.program -> Vir.program
(** Retarget a [Bin], [Cmp] or [Load] defining [t] to write [y] directly
    when it is immediately followed by [Mov (y, Reg t)] and [t] has
    exactly one def and one use (that move) in the program; the move is
    dropped.  Semantics-preserving. *)
