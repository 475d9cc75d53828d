(* Golden per-kernel cycle counts for the G-GPU simulator.

   Runs the full 7-kernel suite at 1 CU and 4 CU and asserts the exact
   [Stats.to_assoc] of every run against values recorded from the
   pre-optimisation scheduler (PR 3 tree), re-pinned once in PR 6 when
   the event heap adopted a value-deterministic (time, cu_id) tie-break
   (only the 4-CU `cycles` entries moved; every other counter is
   unchanged), and re-pinned once more when move coalescing landed:
   it deletes the loop-carried copy, one 8-beat instruction, from the
   inner loop of mat_mul/fir/xcorr/parallel_sel, so cycles, wf/lane
   instruction counts and vu_busy drop 5.5-7.7% on those four kernels
   (each row's pre-coalescing cycles are recorded alongside); every
   memory-system counter (loads, stores, line_requests, cache
   hits/misses, axi_words) is bit-identical, as the pass never touches
   a memory instruction.  copy/vec_mul/div_int have no coalescable
   move and kept their exact rows.  The simulator hot path is free to
   change shape, but any drift in cycle counts or counters — i.e. any
   observable timing-model change — fails this test.  Sizes match
   `gpuplanner run --kernel K --size S` after [round_size].
   Regenerate rows with `dune exec bench/golden_dump.exe`.

   Every case runs under a matrix of (backend x domains) execution
   combinations — the threaded-code engine and the CU-parallel split
   must hit the same table, bit for bit.  CI can pin a single extra
   combination via GGPU_GOLDEN_BACKEND / GGPU_GOLDEN_DOMAINS, which
   replaces the default matrix for that run.

   The RV32 rows pin the CPU baseline of Table III: cycles and retired
   instructions of every suite kernel at its RISC-V size.  Move
   coalescing runs only in the FGPU back end, so these rows must never
   move with it. *)

open Ggpu_kernels
open Ggpu_fgpu

(* (kernel, size, cus, stats in Stats.to_assoc order:
   cycles; wf_instructions; lane_instructions; divergent_issues; loads;
   stores; line_requests; cache_hits; cache_misses; evictions;
   axi_words; barriers; workgroups; vu_busy_cycles) *)
let golden =
  [
    (* pre-coalescing: 36748 cycles, -5.57% *)
    ( "mat_mul", 1024, 1,
      [ 34700; 4336; 277504; 0; 512; 16; 1344; 1200; 144; 0; 2304; 0; 16; 34688 ] );
    (* pre-coalescing: 9280 cycles, -5.52% *)
    ( "mat_mul", 1024, 4,
      [ 8768; 4336; 277504; 0; 512; 16; 1344; 1200; 144; 0; 2304; 0; 16; 34688 ] );
    (* pre-coalescing: 3072 cycles (no rewrite fired) *)
    ( "copy", 2048, 1,
      [ 3072; 384; 24576; 0; 32; 32; 256; 0; 256; 0; 4096; 0; 8; 3072 ] );
    (* pre-coalescing: 1004 cycles (no rewrite fired) *)
    ( "copy", 2048, 4,
      [ 1004; 384; 24576; 0; 32; 32; 256; 0; 256; 0; 4096; 0; 8; 3072 ] );
    (* pre-coalescing: 4096 cycles (no rewrite fired) *)
    ( "vec_mul", 2048, 1,
      [ 4096; 512; 32768; 0; 64; 32; 384; 0; 384; 0; 6144; 0; 8; 4096 ] );
    (* pre-coalescing: 1260 cycles (no rewrite fired) *)
    ( "vec_mul", 2048, 4,
      [ 1260; 512; 32768; 0; 64; 32; 384; 0; 384; 0; 6144; 0; 8; 4096 ] );
    (* pre-coalescing: 28300 cycles, -7.24% *)
    ( "fir", 1024, 1,
      [ 26252; 3280; 209920; 0; 512; 16; 1584; 1454; 130; 0; 2080; 0; 8; 26240 ] );
    (* pre-coalescing: 7146 cycles, -7.16% *)
    ( "fir", 1024, 4,
      [ 6634; 3280; 209920; 0; 512; 16; 1584; 1454; 130; 0; 2080; 0; 8; 26240 ] );
    (* pre-coalescing: 67584 cycles (no rewrite fired) *)
    ( "div_int", 1024, 1,
      [ 67584; 256; 16384; 0; 32; 16; 192; 0; 192; 0; 3072; 0; 4; 67584 ] );
    (* pre-coalescing: 17048 cycles (no rewrite fired) *)
    ( "div_int", 1024, 4,
      [ 17048; 256; 16384; 0; 32; 16; 192; 0; 192; 0; 3072; 0; 4; 67584 ] );
    (* pre-coalescing: 426816 cycles, -7.68% *)
    ( "xcorr", 512, 1,
      [ 394048; 49256; 3152384; 0; 8192; 8; 24352; 24224; 128; 0; 2048; 0; 4; 394048 ] );
    (* pre-coalescing: 107018 cycles, -7.62% *)
    ( "xcorr", 512, 4,
      [ 98868; 49256; 3152384; 0; 8192; 8; 24352; 24224; 128; 0; 2048; 0; 4; 394048 ] );
    (* pre-coalescing: 491644 cycles, -6.58% (divergent_issues halve: the
       coalesced mov sat inside the divergent region) *)
    ( "parallel_sel", 512, 1,
      [ 459298; 57411; 3546368; 3963; 4104; 8; 4350; 4286; 64; 0; 1024; 0; 4; 459288 ] );
    (* pre-coalescing: 123057 cycles, -6.61% *)
    ( "parallel_sel", 512, 4,
      [ 114919; 57411; 3546368; 3963; 4104; 8; 4350; 4286; 64; 0; 1024; 0; 4; 459288 ] );
  ]

let stat_names =
  [
    "cycles"; "wf_instructions"; "lane_instructions"; "divergent_issues";
    "loads"; "stores"; "line_requests"; "cache_hits"; "cache_misses";
    "evictions"; "axi_words"; "barriers"; "workgroups"; "vu_busy_cycles";
  ]

let run_golden ~backend ~domains (name, size, cus, expected) () =
  let w = Suite.find name in
  let size = w.Suite.round_size size in
  let compiled = Codegen_fgpu.compile w.Suite.kernel in
  let args = w.Suite.mk_args ~size in
  let global_size = w.Suite.global_size ~size in
  let local_size = min w.Suite.local_size size in
  let config = Config.with_cus Config.default cus in
  let result =
    Run_fgpu.run ~config ~backend ~domains compiled ~args ~global_size
      ~local_size ()
  in
  (* results must still be correct, not just timed identically *)
  let got = Run_fgpu.output result w.Suite.output_buffer in
  let want = w.Suite.expected ~size args in
  Alcotest.(check bool)
    (Printf.sprintf "%s/%dcu output" name cus)
    true
    (Array.length got = Array.length want
    && Array.for_all2 (fun a b -> Int32.equal a b) got want);
  let assoc = Stats.to_assoc result.Run_fgpu.stats in
  let expected_assoc = List.combine stat_names expected in
  List.iter2
    (fun (k, v) (k', v') ->
      Alcotest.(check string)
        (Printf.sprintf "%s/%dcu field order" name cus)
        k' k;
      Alcotest.(check int) (Printf.sprintf "%s/%dcu %s" name cus k) v' v)
    assoc expected_assoc

(* Default (backend, domains) execution matrix; CI overrides it with a
   single pinned combination via the environment to exercise e.g.
   `threaded x 4 domains` as a dedicated step. *)
let combos =
  match (Sys.getenv_opt "GGPU_GOLDEN_BACKEND", Sys.getenv_opt "GGPU_GOLDEN_DOMAINS") with
  | None, None -> [ (Gpu.Interp, 1); (Gpu.Threaded, 1); (Gpu.Threaded, 4) ]
  | b, d ->
      let backend =
        match b with
        | None -> Gpu.Threaded
        | Some s -> (
            match Gpu.backend_of_string s with
            | Some backend -> backend
            | None ->
                failwith
                  (Printf.sprintf "GGPU_GOLDEN_BACKEND: unknown backend %S" s))
      in
      let domains = match d with None -> 1 | Some s -> int_of_string s in
      [ (backend, domains) ]

(* (kernel, cycles, instret) at the workload's [riscv_size]. *)
let golden_rv32 =
  [
    ("mat_mul", 136709, 73731);
    ("copy", 12293, 6659);
    ("vec_mul", 35845, 17411);
    ("fir", 59909, 28419);
    ("div_int", 28677, 8707);
    ("xcorr", 115973, 54147);
    ("parallel_sel", 380549, 231299);
  ]

let run_golden_rv32 (name, cycles, instret) () =
  let w = Suite.find name in
  let size = w.Suite.riscv_size in
  let args = w.Suite.mk_args ~size in
  let result =
    Run_rv32.run (Codegen_rv32.compile w.Suite.kernel) ~args
      ~global_size:(w.Suite.global_size ~size)
      ~local_size:(min w.Suite.local_size size)
      ()
  in
  Alcotest.(check bool)
    (name ^ " output") true
    (Run_rv32.output result w.Suite.output_buffer = w.Suite.expected ~size args);
  let stats = result.Run_rv32.stats in
  Alcotest.(check int) (name ^ " cycles") cycles stats.Ggpu_riscv.Cpu.cycles;
  Alcotest.(check int) (name ^ " instret") instret
    stats.Ggpu_riscv.Cpu.instructions

let suite =
  [
    ( "golden-rv32",
      List.map
        (fun ((name, _, _) as case) ->
          Alcotest.test_case name `Quick (run_golden_rv32 case))
        golden_rv32 );
    ( "golden-cycles",
      List.concat_map
        (fun (backend, domains) ->
          List.map
            (fun ((name, size, cus, _) as case) ->
              Alcotest.test_case
                (Printf.sprintf "%s size=%d cus=%d [%s/%dd]" name size cus
                   (Gpu.backend_name backend) domains)
                `Slow
                (run_golden ~backend ~domains case))
            golden)
        combos );
  ]
