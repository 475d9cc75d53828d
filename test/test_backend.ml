(* Backend equivalence tests: the interpreting and threaded-code
   lane-execution engines, and the split (CU-parallel) execution mode,
   must be indistinguishable in every observable — stats, output
   buffers, FI classification signatures, suite metrics.

   The differential property generates random kernels (arithmetic,
   divergent control flow, bounded loops, coalesced/masked loads,
   cross-wavefront barrier communication) and random launch geometry,
   then checks every (backend x domains) combination against the
   sequential interpreter.  Generated kernels are race-free by
   construction — stores go only to the work-item's own slot, and
   cross-item reads only cross a barrier — because that is the
   contract under which split mode promises bit-identical results. *)

open Ggpu_kernels
open Ggpu_fgpu
open Ggpu_fi

(* read-only input buffer size; load indices are masked to [0, asize) *)
let asize = 64

(* --- random kernel generator ------------------------------------------ *)

type case = {
  kernel : Ast.kernel;
  gsize : int;
  lsize : int;
  cus : int;
  with_barrier : bool;
}

module G = QCheck.Gen

let gen_binop =
  G.oneofl
    Ast.[ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr; Sra ]

let gen_cmpop = G.oneofl Ast.[ Eq; Ne; Lt; Le; Gt; Ge ]

(* a load from the read-only buffer "a", index masked in range; every
   lane reads the same word when [e] is uniform *)
let masked_load e = Ast.load "a" (Ast.Binop (Ast.And, e, Ast.const (asize - 1)))

(* depth-bounded expressions over [vars]; loads only touch "a" *)
let gen_expr vars depth =
  let open G in
  let leaf =
    oneof
      ([
         map Ast.const (int_range (-8) 8);
         return Ast.Global_id;
         return Ast.Local_id;
         return Ast.Local_size;
         return (Ast.var "n");
       ]
      @ List.map (fun v -> return (Ast.var v)) vars)
  in
  (fix (fun self depth ->
       if depth <= 0 then leaf
       else
         frequency
           [
             (2, leaf);
             ( 4,
               map3
                 (fun op a b -> Ast.Binop (op, a, b))
                 gen_binop (self (depth - 1)) (self (depth - 1)) );
             ( 1,
               map masked_load (self (depth - 1)) );
           ]))
    depth

let gen_cond vars depth =
  G.map3
    (fun op a b -> Ast.Cmp (op, a, b))
    gen_cmpop (gen_expr vars depth) (gen_expr vars depth)

(* Template: scalar prologue, a bounded accumulation loop, a divergent
   if, a second loop, a store to the item's own slot; optionally a
   barrier phase that reads another work-item's pre-barrier value
   (possibly from another wavefront — exactly what the split mode's
   barrier rounds must get right) and stores it into a second buffer.

   The loops and [u] exercise the threaded engine's uniform registers:
   loop bounds and [u] start wavefront-uniform, the loop bodies load at
   uniform indices, and the divergent if may write [u] on one side
   only before the second loop uses it as a bound and a load index. *)
let gen_kernel =
  let open G in
  let* u0 =
    oneofl
      [ Ast.const 3; Ast.(Binop (And, var "n", const 15)); Ast.Local_size ]
  in
  let* e_x = gen_expr [ "i" ] 2 in
  let* e_y = gen_expr [ "i"; "x" ] 2 in
  let* iters = int_range 0 5 in
  let* bound =
    oneofl
      Ast.
        [
          const iters;
          Binop (And, var "n", const 7);
          Binop (And, var "u", const 7);
        ]
  in
  let* e_loop =
    frequency
      [
        (2, gen_expr [ "i"; "x"; "y"; "acc"; "k" ] 1);
        (1, return (masked_load Ast.(var "k" +: var "u")));
      ]
  in
  let* cond = gen_cond [ "i"; "x"; "y"; "acc" ] 1 in
  let* e_then = gen_expr [ "i"; "x"; "y"; "acc" ] 1 in
  let* e_else = gen_expr [ "i"; "x"; "y"; "acc" ] 1 in
  let* then_u = bool in
  let* e_out = gen_expr [ "i"; "x"; "y"; "acc"; "u" ] 2 in
  let* with_barrier = bool in
  let* peer_shift = int_range 0 63 in
  let prologue =
    [
      Ast.Let ("i", Ast.Global_id);
      Ast.Let ("u", u0);
      Ast.Let ("x", e_x);
      Ast.Let ("y", e_y);
      Ast.Let ("acc", Ast.const 0);
      Ast.For
        ( "k",
          Ast.const 0,
          bound,
          [ Ast.Assign ("acc", Ast.(var "acc" +: e_loop)) ] );
      Ast.If
        ( cond,
          Ast.Assign ("x", e_then)
          ::
          (if then_u then [ Ast.Assign ("u", Ast.(var "u" +: const 1)) ]
           else []),
          [ Ast.Assign ("y", e_else) ] );
      Ast.For
        ( "j",
          Ast.const 0,
          Ast.(Binop (And, var "u", const 7)),
          [
            Ast.Assign
              ("acc", Ast.(var "acc" +: masked_load (var "u" +: var "j")));
          ] );
      Ast.Store ("out", Ast.var "i", e_out);
    ]
  in
  let barrier_phase =
    [
      Ast.Barrier;
      Ast.Let ("lid", Ast.Local_id);
      Ast.Let ("base", Ast.(var "i" -: var "lid"));
      Ast.Let
        ( "peer",
          Ast.(
            var "base"
            +: Binop (Rem, var "lid" +: const peer_shift, Local_size)) );
      Ast.Store ("res", Ast.var "i", Ast.load "out" (Ast.var "peer"));
    ]
  in
  let params =
    [ Ast.Buffer "a"; Ast.Buffer "out"; Ast.Scalar "n" ]
    @ if with_barrier then [ Ast.Buffer "res" ] else []
  in
  let body = prologue @ if with_barrier then barrier_phase else [] in
  return ({ Ast.name = "rand"; params; body }, with_barrier)

let gen_case =
  let open G in
  let* kernel, with_barrier = gen_kernel in
  let* gsize = int_range 1 300 in
  let* lsize = oneofl [ 64; 128 ] in
  let* cus = oneofl [ 1; 2; 4 ] in
  return { kernel; gsize; lsize = min lsize gsize; cus; with_barrier }

let print_case c =
  Printf.sprintf "gsize=%d lsize=%d cus=%d barrier=%b body-stmts=%d" c.gsize
    c.lsize c.cus c.with_barrier
    (List.length c.kernel.Ast.body)

let arb_case = QCheck.make ~print:print_case gen_case

(* --- differential runner ---------------------------------------------- *)

let round_up n m = (n + m - 1) / m * m

let mk_args c =
  (* the barrier phase may read any slot of its workgroup's span, so
     size "out" to the workgroup-aligned grid *)
  let out_words = round_up c.gsize c.lsize in
  let a = Array.init asize (fun i -> Int32.of_int ((i * 2654435761) lxor i)) in
  let buffers =
    [ ("a", a); ("out", Array.make out_words 0l) ]
    @ if c.with_barrier then [ ("res", Array.make c.gsize 0l) ] else []
  in
  { Interp.buffers; scalars = [ ("n", Int32.of_int c.gsize) ] }

(* every buffer's final contents, in argument order *)
let outputs r (args : Interp.args) =
  List.map (fun (name, _) -> (name, Run_fgpu.output r name)) args.Interp.buffers

let observe c ~backend ~domains =
  let config = Config.with_cus Config.default c.cus in
  let compiled = Codegen_fgpu.compile c.kernel in
  let args = mk_args c in
  let r =
    Run_fgpu.run ~config ~backend ~domains compiled ~args ~global_size:c.gsize
      ~local_size:c.lsize ()
  in
  (Stats.to_assoc r.Run_fgpu.stats, outputs r args)

let prop_backends_and_domains_agree =
  QCheck.Test.make ~name:"backend x domains differential" ~count:30 arb_case
    (fun c ->
      let reference = observe c ~backend:Gpu.Interp ~domains:1 in
      List.for_all
        (fun (backend, domains) -> observe c ~backend ~domains = reference)
        [ (Gpu.Threaded, 1); (Gpu.Threaded, 3); (Gpu.Threaded, 4); (Gpu.Interp, 2) ])

(* --- move coalescing differential --------------------------------------- *)

(* Move coalescing is allowed to change timing observables (cycles,
   instruction counts, vu_busy, divergent issue counts) but nothing
   else: output buffers must be bit-identical, and so must every
   memory/synchronisation counter, since the pass only drops
   register-to-register moves. *)
let semantic_keys = [ "loads"; "stores"; "barriers"; "workgroups" ]

let observe_coalesce c ~coalesce =
  let config = Config.with_cus Config.default c.cus in
  let compiled = Codegen_fgpu.compile ~coalesce c.kernel in
  let args = mk_args c in
  let r =
    Run_fgpu.run ~config compiled ~args ~global_size:c.gsize
      ~local_size:c.lsize ()
  in
  let semantic =
    List.filter (fun (k, _) -> List.mem k semantic_keys)
      (Stats.to_assoc r.Run_fgpu.stats)
  in
  (semantic, outputs r args)

let prop_coalesce_preserves_semantics =
  QCheck.Test.make ~name:"move coalescing differential" ~count:30 arb_case
    (fun c ->
      observe_coalesce c ~coalesce:true = observe_coalesce c ~coalesce:false)

(* --- fixed cross-wavefront barrier case -------------------------------- *)

(* Two wavefronts per workgroup; after the barrier every item reads a
   slot written by the *other* wavefront before it.  Checks the split
   mode's barrier rounds against the sequential scheduler exactly, and
   the expected values analytically. *)
let test_split_barrier_cross_wavefront () =
  let kernel =
    {
      Ast.name = "xwf_barrier";
      params = [ Ast.Buffer "out"; Ast.Buffer "res" ];
      body =
        [
          Ast.Let ("i", Ast.Global_id);
          Ast.Store ("out", Ast.var "i", Ast.(var "i" *: const 3));
          Ast.Barrier;
          Ast.Let ("lid", Ast.Local_id);
          Ast.Let ("base", Ast.(var "i" -: var "lid"));
          Ast.Let
            ( "peer",
              Ast.(
                var "base" +: Binop (Rem, var "lid" +: const 64, Local_size)) );
          Ast.Store ("res", Ast.var "i", Ast.load "out" (Ast.var "peer"));
        ];
    }
  in
  let n = 512 in
  let run ~backend ~domains =
    let args =
      {
        Interp.buffers = [ ("out", Array.make n 0l); ("res", Array.make n 0l) ];
        scalars = [];
      }
    in
    let compiled = Codegen_fgpu.compile kernel in
    let r =
      Run_fgpu.run ~backend ~domains compiled ~args ~global_size:n
        ~local_size:128 ()
    in
    (Stats.to_assoc r.Run_fgpu.stats, Run_fgpu.output r "res")
  in
  let (stats_ref, res_ref) = run ~backend:Gpu.Interp ~domains:1 in
  (* analytic expectation: each item reads its cross-wavefront peer *)
  for i = 0 to n - 1 do
    let lid = i mod 128 in
    let peer = i - lid + ((lid + 64) mod 128) in
    Alcotest.(check int32)
      (Printf.sprintf "res[%d]" i)
      (Int32.of_int (3 * peer))
      res_ref.(i)
  done;
  List.iter
    (fun (backend, domains) ->
      let stats, res = run ~backend ~domains in
      Alcotest.(check bool)
        (Printf.sprintf "stats equal (%s, %d domains)"
           (Gpu.backend_name backend) domains)
        true
        (stats = stats_ref);
      Alcotest.(check bool)
        (Printf.sprintf "res equal (%s, %d domains)" (Gpu.backend_name backend)
           domains)
        true (res = res_ref))
    [ (Gpu.Threaded, 1); (Gpu.Threaded, 2); (Gpu.Threaded, 4); (Gpu.Interp, 3) ]

(* --- register uniformity ------------------------------------------------ *)

(* The threaded engine runs an instruction whose sources are uniform
   across the wavefront once ([Wavefront.uni]).  A bit left set on a
   slice whose lanes differ would broadcast lane 0's value, so the
   first two cases make a uniform register non-uniform and then read
   it; the third faults in a uniform load.  Each compares the engines
   on memory (and full stats, or the fault) at 1 and 4 domains. *)

let uniformity_runs = [ (Gpu.Threaded, 1); (Gpu.Threaded, 4); (Gpu.Interp, 4) ]

let run_raw ?inject ~backend ~domains ~program ~params ~global_size ~mem () =
  let mem = Array.copy mem in
  let stats =
    Gpu.run ?inject ~backend ~domains Config.default ~program ~params
      ~global_size ~local_size:64 ~mem
  in
  (Stats.to_assoc stats, mem)

let check_engines_agree ~what ?inject ~program ~params ~global_size ~mem () =
  let reference =
    run_raw ?inject ~backend:Gpu.Interp ~domains:1 ~program ~params
      ~global_size ~mem ()
  in
  List.iter
    (fun (backend, domains) ->
      let stats, mem =
        run_raw ?inject ~backend ~domains ~program ~params ~global_size ~mem ()
      in
      let label =
        Printf.sprintf "%s (%s, %d domains)" what (Gpu.backend_name backend)
          domains
      in
      Alcotest.(check bool) (label ^ ": stats") true (stats = fst reference);
      Alcotest.(check bool) (label ^ ": memory") true (mem = snd reference))
    uniformity_runs;
  reference

(* r10 = 4 in every lane; odd lanes alone add 8 (a divergent write);
   after reconvergence r10 is a load address, a branch operand and an
   ALU source.  Memory words 0..63 hold data, out (r1) follows; item g
   writes 2 words: mem[r10 / 4] + (r10 >= 8), and r10 + r10. *)
let stale_bit_program =
  Ggpu_isa.Fgpu_isa.
    [|
      Special (Lid, 3);
      Special (Wgoff, 4);
      Alu (Add, 5, 4, 3);
      Alui (Sll, 6, 5, 3l);
      Alu (Add, 6, 6, 1) (* r6 = &out[2 * gid] *);
      Li (10, 4l);
      Alui (And, 8, 3, 1l);
      Branch (Eq, 8, 0, 1) (* even -> 9 *);
      Alui (Add, 10, 10, 8l);
      Lw (12, 10, 0);
      Li (14, 8l);
      Li (15, 0l);
      Branch (Lt, 10, 14, 1) (* r10 < 8 -> 14 *);
      Li (15, 1l);
      Alu (Add, 16, 12, 15);
      Sw (16, 6, 0);
      Alu (Add, 17, 10, 10);
      Sw (17, 6, 4);
      Ret;
    |]

let test_uniform_stale_bit () =
  let global_size = 256 in
  let mem = Array.make (64 + (2 * global_size)) 0 in
  for i = 0 to 63 do
    mem.(i) <- (7 * i) + 1
  done;
  let _, out =
    check_engines_agree ~what:"divergent write" ~program:stale_bit_program
      ~params:[ 256l ] ~global_size ~mem ()
  in
  for g = 0 to global_size - 1 do
    let odd = g land 1 = 1 in
    Alcotest.(check (pair int int))
      (Printf.sprintf "item %d" g)
      (if odd then (mem.(3) + 1, 24) else (mem.(1), 8))
      (out.(64 + (2 * g)), out.(64 + (2 * g) + 1))
  done

(* acc = sum of k for k < n, with n (r2) uniform; mid-loop, an injector
   rewrites r2 in lane 5 of every resident wavefront, so that lane
   leaves the loop early: the loop-back branch must stop treating r2 as
   uniform. *)
let loop_program =
  Ggpu_isa.Fgpu_isa.
    [|
      Special (Lid, 3);
      Special (Wgoff, 4);
      Alu (Add, 5, 4, 3);
      Alui (Sll, 6, 5, 2l);
      Alu (Add, 6, 6, 1) (* r6 = &out[gid] *);
      Li (9, 0l) (* k *);
      Li (11, 0l) (* acc *);
      Branch (Ge, 9, 2, 3) (* k >= n -> 11 *);
      Alu (Add, 11, 11, 9);
      Alui (Add, 9, 9, 1l);
      Jump 7;
      Sw (11, 6, 0);
      Ret;
    |]

let test_uniform_inject_loop_bound () =
  let global_size = 128 and n = 60 in
  let mem = Array.make global_size 0 and params = [ 0l; Int32.of_int n ] in
  let run ?inject backend =
    Gpu.run ?inject ~backend Config.default ~program:loop_program ~params
      ~global_size ~local_size:64 ~mem:(Array.copy mem)
  in
  let mid = (run Gpu.Interp).Stats.cycles / 2 in
  let inject ~record =
    ( mid,
      fun (p : Gpu.probe) ->
        Array.iter
          (fun wf ->
            if not (Wavefront.finished wf) then begin
              record wf;
              Wavefront.set_reg wf ~lane:5 2 3l
            end)
          p.Gpu.p_wavefronts )
  in
  (* the threaded engine held r2 uniform when the fault landed *)
  let saw_uniform = ref false in
  ignore
    (run Gpu.Threaded
       ~inject:
         (inject ~record:(fun wf ->
              if wf.Wavefront.uni land (1 lsl 2) <> 0 then saw_uniform := true)));
  Alcotest.(check bool) "r2 uniform at injection" true !saw_uniform;
  let _, out =
    check_engines_agree ~what:"injected loop bound"
      ~inject:(inject ~record:ignore) ~program:loop_program ~params
      ~global_size ~mem ()
  in
  let full = n * (n - 1) / 2 in
  Alcotest.(check int) "an untouched lane sums the whole loop" full out.(0);
  Alcotest.(check bool) "lane 5 left the loop early" true (out.(5) < full)

(* Every lane loads from one address past the end of memory, after a
   store that must survive the fault. *)
let oob_program =
  Ggpu_isa.Fgpu_isa.
    [|
      Special (Lid, 3);
      Alui (Sll, 6, 3, 2l);
      Li (7, 0x55l);
      Sw (7, 6, 0);
      Li (9, 0x1000l);
      Lw (8, 9, 0);
      Ret;
    |]

let test_uniform_load_fault () =
  let words = 65 in
  let fault_of backend domains =
    let mem = Array.make words (-1) in
    match
      Gpu.run ~backend ~domains Config.default ~program:oob_program ~params:[]
        ~global_size:64 ~local_size:64 ~mem
    with
    | _ -> Alcotest.fail "expected an out-of-memory fault"
    | exception Wavefront.Fault msg -> (msg, mem)
  in
  let reference = fault_of Gpu.Interp 1 in
  Alcotest.(check string) "interp message" "address 0x1000 out of memory"
    (fst reference);
  List.iter
    (fun (backend, domains) ->
      let msg, mem = fault_of backend domains in
      let label = Printf.sprintf "%s, %d domains" (Gpu.backend_name backend) domains in
      Alcotest.(check string) (label ^ ": message") (fst reference) msg;
      Alcotest.(check bool) (label ^ ": memory") true (mem = snd reference))
    uniformity_runs;
  (* issue by issue: the faulting load charged exactly one line and
     left the same registers behind in both engines *)
  let dprog = Ggpu_isa.Fgpu_predecode.of_program oob_program in
  let drive engine =
    let mem = Array.make words (-1) in
    let issue = engine mem in
    let wf =
      Wavefront.create
        ~regs:(Array.make (Wavefront.reg_file_words ~size:64) 0)
        ~wg_id:0 ~wf_index:0 ~size:64 ~wg_offset:0 ~wg_size:64 ~global_size:64
        ~params:[]
    in
    let out = Wavefront.make_outcome ~max_lanes:64 in
    let rec go () =
      match issue wf out with
      | () -> go ()
      | exception Wavefront.Fault msg ->
          (msg, out.Wavefront.mem_line_count, Array.copy wf.Wavefront.regs, wf)
    in
    go ()
  in
  let i_msg, i_lines, i_regs, _ =
    drive (fun mem wf out -> Wavefront.issue wf ~dprog ~mem ~line_words:16 out)
  in
  let t_msg, t_lines, t_regs, t_wf =
    drive (fun mem ->
        let th = Threaded.compile dprog ~wf_size:64 ~mem ~line_words:16 in
        fun wf out -> Threaded.issue th wf out)
  in
  Alcotest.(check bool) "address register uniform" true
    (t_wf.Wavefront.uni land (1 lsl 9) <> 0);
  Alcotest.(check string) "issue-level message" i_msg t_msg;
  Alcotest.(check int) "interp charged one line" 1 i_lines;
  Alcotest.(check int) "threaded charged one line" 1 t_lines;
  Alcotest.(check bool) "registers" true (i_regs = t_regs)

(* --- suite metrics: failures counter always present -------------------- *)

let test_suite_failures_registered () =
  let w = Suite.copy in
  let jobs =
    [ { Suite_runner.workload = w; cus = 1; size = w.Suite.round_size 256 } ]
  in
  let results, snap = Suite_runner.run ~domains:1 jobs in
  List.iter
    (fun r ->
      Alcotest.(check bool) "job correct" true r.Suite_runner.correct)
    results;
  Alcotest.(check (option int))
    "suite.failures present and zero on a clean run" (Some 0)
    (Ggpu_obs.Metrics.find_counter snap "suite.failures");
  Alcotest.(check (option int))
    "suite.jobs counted" (Some 1)
    (Ggpu_obs.Metrics.find_counter snap "suite.jobs")

(* --- FI classification signatures are backend-independent -------------- *)

let test_fi_signature_backend_parity () =
  let signature backend =
    Campaign.signature
      (Campaign.run ~domains:1 ~backend ~target:(Campaign.Ggpu 2)
         ~workload:Suite.copy ~size:256 ~trials:40 ~seed:7 ())
  in
  Alcotest.(check string)
    "fi signature identical across backends"
    (signature Gpu.Interp) (signature Gpu.Threaded)

let suite =
  [
    ( "backend",
      [
        QCheck_alcotest.to_alcotest prop_backends_and_domains_agree;
        QCheck_alcotest.to_alcotest prop_coalesce_preserves_semantics;
        Alcotest.test_case "split barrier cross-wavefront" `Quick
          test_split_barrier_cross_wavefront;
        Alcotest.test_case "uniform register written divergently" `Quick
          test_uniform_stale_bit;
        Alcotest.test_case "uniform loop bound injected" `Quick
          test_uniform_inject_loop_bound;
        Alcotest.test_case "uniform load fault" `Quick test_uniform_load_fault;
        Alcotest.test_case "suite.failures registered at zero" `Quick
          test_suite_failures_registered;
        Alcotest.test_case "fi signature backend parity" `Slow
          test_fi_signature_backend_parity;
      ] );
  ]
