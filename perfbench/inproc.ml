(* The two in-process workloads: the paper's Table III / Figs. 5-6
   comparison and its EDA grid (Tables I-II plus the 8/16/32-CU
   scaling study).  Both run closed-loop on one domain.

   A [pass] is the path a user reaches through the CLI.  The traced
   run makes the very same pass with the tracer on and reads the
   per-layer figures from the spans it leaves: the benchmark's own
   [bench.<layer>] spans around each layer call on paper-compare, the
   program's [flow.*], [rtlgen.*] and [layout.*] spans on flow-grid. *)

open Ggpu_kernels
module Compare = Ggpu_core.Compare
module Versions = Ggpu_core.Versions
module Flow = Ggpu_core.Flow
module Spec = Ggpu_core.Spec
module Dse = Ggpu_core.Dse
module Report = Ggpu_synth.Report
module Profile = Ggpu_obs.Profile
module Metrics = Ggpu_obs.Metrics

(* A permutation of [xs] drawn from [rng].  The seed orders the calls of
   each pass, never their inputs, which the paper fixes.  Every pass
   draws a new order: the order alone moves a paper-compare pass's CPU
   time by up to 20% (the GC and cache state each call inherits), so a
   run's median covers many orders rather than resting on one. *)
let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

(* Milliseconds under the spans called [name] in a traced pass. *)
let total_ms rows name =
  match List.find_opt (fun (r : Profile.row) -> r.name = name) rows with
  | Some r -> float_of_int r.total_ns /. 1e6
  | None -> 0.

module type WORKLOAD = sig
  type ctx
  type digest

  val prepare : seed:int -> ctx
  (** Input generation. *)

  val pass : ctx -> digest
  (** One full pass through the user entry points; checks every output. *)

  val check_traced : ctx -> digest -> unit
  (** Faithfulness checks of a traced pass beyond digest equality. *)

  val counts : digest -> (string * int) list
  (** Exact counts that must repeat across passes and runs. *)

  val layers : string list
  (** Prefixes of the per-layer metrics this workload measures; the
      others are layers it never calls. *)

  val layer_values : digest -> Profile.row list -> (string * float) list
  (** Per-layer values of one traced pass, from its span profile, the
      host GC work [Layer] recorded and the ambient metrics. *)
end

(* --- paper-compare -------------------------------------------------------- *)

module Paper_compare : WORKLOAD = struct
  type input = {
    w : Suite.t;
    g_args : Interp.args;
    g_expect : int32 array;
    r_args : Interp.args;
    r_expect : int32 array;
  }

  type job = Fgpu of input * int | Rv32 of input
  type ctx = { inputs : input list; jobs : job list; rng : Random.State.t }

  type digest = {
    rows : Compare.row list;
    speedups : Compare.speedups list;
    counts : (string * int) list;
  }

  let prepare ~seed =
    let inputs =
      List.map
        (fun (w : Suite.t) ->
          let g_args = w.mk_args ~size:w.ggpu_size in
          let r_args = w.mk_args ~size:w.riscv_size in
          {
            w;
            g_args;
            g_expect = w.expected ~size:w.ggpu_size g_args;
            r_args;
            r_expect = w.expected ~size:w.riscv_size r_args;
          })
        Suite.all
    in
    let jobs =
      List.concat_map
        (fun i -> Rv32 i :: List.map (fun c -> Fgpu (i, c)) Compare.cu_counts)
        inputs
    in
    { inputs; jobs; rng = Random.State.make [| seed |] }

  (* One Table III cell: compile per (kernel, CU count) as
     [Compare.run_ggpu] does, run, and check against the OCaml
     reference. *)
  let run_fgpu ~compiles inp cus =
    let w = inp.w and size = inp.w.Suite.ggpu_size in
    let compiled =
      Layer.call "kernels.compile_fgpu" (fun () ->
          incr compiles;
          Codegen_fgpu.compile w.Suite.kernel)
    in
    let config = Ggpu_fgpu.Config.with_cus Ggpu_fgpu.Config.default cus in
    let r =
      Layer.call ("fgpu.run." ^ w.Suite.name) (fun () ->
          Run_fgpu.run ~config compiled ~args:inp.g_args
            ~global_size:(w.Suite.global_size ~size)
            ~local_size:(min w.Suite.local_size size)
            ())
    in
    Outcome.expect
      (Printf.sprintf "fgpu %s/%dcu output differs from Suite.expected"
         w.Suite.name cus)
      (Run_fgpu.output r w.Suite.output_buffer = inp.g_expect);
    r.Run_fgpu.stats

  let run_rv32 ~compiles inp =
    let w = inp.w and size = inp.w.Suite.riscv_size in
    let compiled =
      Layer.call "kernels.compile_rv32" (fun () ->
          incr compiles;
          Codegen_rv32.compile w.Suite.kernel)
    in
    let r =
      Layer.call "riscv.run" (fun () ->
          Run_rv32.run compiled ~args:inp.r_args
            ~global_size:(w.Suite.global_size ~size)
            ~local_size:(min w.Suite.local_size size)
            ())
    in
    Outcome.expect
      (Printf.sprintf "rv32 %s output differs from Suite.expected" w.Suite.name)
      (Run_rv32.output r w.Suite.output_buffer = inp.r_expect);
    r.Run_rv32.stats

  let pass ctx =
    let fgpu = Hashtbl.create 32 and rv32 = Hashtbl.create 8 in
    let compiles = ref 0 in
    List.iter
      (function
        | Fgpu (inp, cus) -> (
            let what = Printf.sprintf "fgpu %s/%dcu" inp.w.Suite.name cus in
            match Outcome.op what (fun () -> run_fgpu ~compiles inp cus) with
            | Some st -> Hashtbl.replace fgpu (inp.w.Suite.name, cus) st
            | None -> ())
        | Rv32 inp -> (
            let what = "rv32 " ^ inp.w.Suite.name in
            match Outcome.op what (fun () -> run_rv32 ~compiles inp) with
            | Some st -> Hashtbl.replace rv32 inp.w.Suite.name st
            | None -> ()))
      (shuffle ctx.rng ctx.jobs);
    let kcycles = function Some c -> float_of_int c /. 1000.0 | None -> -1.0 in
    let rows =
      List.map
        (fun inp ->
          let name = inp.w.Suite.name in
          {
            Compare.kernel = name;
            riscv_size = inp.w.Suite.riscv_size;
            ggpu_size = inp.w.Suite.ggpu_size;
            riscv_kcycles =
              kcycles
                (Option.map
                   (fun s -> s.Ggpu_riscv.Cpu.cycles)
                   (Hashtbl.find_opt rv32 name));
            ggpu_kcycles =
              List.map
                (fun cus ->
                  ( cus,
                    kcycles
                      (Option.map
                         (fun s -> s.Ggpu_fgpu.Stats.cycles)
                         (Hashtbl.find_opt fgpu (name, cus))) ))
                Compare.cu_counts;
          })
        ctx.inputs
    in
    let speedups =
      Outcome.op "compare.speedups" (fun () ->
          let s =
            Layer.call "compare.speedups" (fun () -> Compare.speedups rows)
          in
          List.iter
            (fun (s : Compare.speedups) ->
              List.iter
                (fun (cus, v) ->
                  Outcome.expect
                    (Printf.sprintf "speed-up %s/%dcu = %g is not positive"
                       s.kernel cus v)
                    (Float.is_finite v && v > 0.))
                (s.raw @ s.derated))
            s;
          s)
      |> Option.value ~default:[]
    in
    let fstats = Hashtbl.to_seq_values fgpu |> List.of_seq in
    let rstats = Hashtbl.to_seq_values rv32 |> List.of_seq in
    {
      rows;
      speedups;
      counts =
        [
          ("fgpu.cycles", sum (fun s -> s.Ggpu_fgpu.Stats.cycles) fstats);
          ( "fgpu.wf_instructions",
            sum (fun s -> s.Ggpu_fgpu.Stats.wf_instructions) fstats );
          ("riscv.cycles", sum (fun s -> s.Ggpu_riscv.Cpu.cycles) rstats);
          ("kernels.compile_calls", !compiles);
        ];
    }

  (* The traced cycle table must be the one the CLI's [compare] prints. *)
  let check_traced _ctx d =
    Outcome.expect "traced cycle table differs from Compare.table3"
      (Compare.table3 () = d.rows)

  let counts d = d.counts
  let layers = [ "kernels."; "fgpu."; "riscv."; "compare." ]

  let kernels = List.map (fun (w : Suite.t) -> w.name) Suite.all

  let layer_values d rows =
    let bench l = total_ms rows (Layer.span_name l) in
    let run_k =
      List.map (fun k -> ("fgpu.run_ms." ^ k, bench ("fgpu.run." ^ k))) kernels
    in
    let fgpu_ms = List.fold_left (fun acc (_, v) -> acc +. v) 0. run_k in
    let count n = float_of_int (List.assoc n d.counts) in
    let compile_mw, _ = Layer.gc_under "kernels.compile" in
    let fgpu_mw, fgpu_majors = Layer.gc_under "fgpu." in
    [
      ("kernels.compile_fgpu_ms", bench "kernels.compile_fgpu");
      ("kernels.compile_rv32_ms", bench "kernels.compile_rv32");
      ("kernels.compile_calls", count "kernels.compile_calls");
      ("kernels.compile_alloc_mw", compile_mw);
      ("fgpu.run_ms", fgpu_ms);
    ]
    @ run_k
    @ [
        ("fgpu.cycles", count "fgpu.cycles");
        ("fgpu.wf_instructions", count "fgpu.wf_instructions");
        ("fgpu.wf_instr_per_s", count "fgpu.wf_instructions" /. (fgpu_ms /. 1e3));
        ("fgpu.alloc_mw", fgpu_mw);
        ("fgpu.major_gcs", float_of_int fgpu_majors);
        ("riscv.run_ms", bench "riscv.run");
        ("riscv.cycles", count "riscv.cycles");
        ("compare.speedups_ms", bench "compare.speedups");
      ]
end

(* --- flow-grid ----------------------------------------------------------- *)

module Flow_grid : WORKLOAD = struct
  let scaling_cus = [ 8; 16; 32 ]

  type call = Table1 | Physical | Scaling of Flow.placer
  type ctx = { calls : call list; rng : Random.State.t }

  (* Everything deterministic a synthesis or implementation returns;
     wall times are left out so digests compare exactly. *)
  type syn = {
    report : Report.row;
    sta_calls : int;
    sta_full : int;
    sta_incremental : int;
    divisions : int;
    pipelines : int;
  }

  type impl = {
    syn : syn;
    achieved_mhz : float;
    post_period_ns : float;
    die : Ggpu_layout.Floorplan.rect;
    route : Ggpu_layout.Route.t;
    spec_check : (unit, Spec.violation list) result;
  }

  type digest = {
    table1 : syn list;
    physical : impl list;
    columns : impl list;
    analytic : impl list;
  }

  let prepare ~seed =
    {
      calls = [ Table1; Physical; Scaling Columns; Scaling Analytic ];
      rng = Random.State.make [| seed |];
    }

  (* STA wall time of the syntheses since the last [pass] began; wall
     times stay out of the digests, which must compare exactly. *)
  let sta_ms = ref 0.

  let syn_of report map (perf : Dse.perf) =
    sta_ms := !sta_ms +. (perf.Dse.sta_wall_s *. 1000.);
    {
      report;
      sta_calls = perf.Dse.sta_calls;
      sta_full = perf.Dse.sta_full;
      sta_incremental = perf.Dse.sta_incremental;
      divisions = Ggpu_core.Map.divisions map;
      pipelines = Ggpu_core.Map.pipelines map;
    }

  let impl_of (i : Flow.implementation) =
    {
      syn = syn_of i.logic_report i.map i.dse_perf;
      achieved_mhz = i.achieved_mhz;
      post_period_ns = i.post_timing.Ggpu_layout.Timing_post.post_route_period_ns;
      die = i.floorplan.Ggpu_layout.Floorplan.die;
      route = i.route;
      spec_check = i.spec_check;
    }

  (* Table I: the planner meets every target by construction. *)
  let check_syn (s : syn) =
    Outcome.expect
      (Printf.sprintf "%dCU@%d synthesis misses its target (fmax %.1f)"
         s.report.num_cus s.report.freq_mhz s.report.fmax_mhz)
      (s.report.fmax_mhz +. 1e-9 >= float_of_int s.report.freq_mhz)

  (* With the paper's floorplan, every implementation up to 8 CUs meets
     its specification, except that 8 CUs at 667 MHz derates after
     routing (the paper's Fig. 4: to about 600 MHz).  The analytical
     placer is not the paper's; its results must only be plausible. *)
  let check_impl call (i : impl) =
    let cus = i.syn.report.num_cus and freq = i.syn.report.freq_mhz in
    if call = Scaling Analytic then
      Outcome.expect
        (Printf.sprintf "%dCU@%d analytic implementation achieved %.0f MHz" cus
           freq i.achieved_mhz)
        (i.achieved_mhz > 0. && i.achieved_mhz <= float_of_int freq)
    else if cus <= 8 then
      let ok =
        match i.spec_check with
        | Ok () -> not (cus = 8 && freq = 667)
        | Error [ Spec.Frequency_missed { achieved_mhz; _ } ] ->
            cus = 8 && freq = 667 && achieved_mhz >= 580. && achieved_mhz <= 640.
        | Error _ -> false
      in
      Outcome.expect
        (Printf.sprintf "%dCU@%d implementation check: achieved %.0f MHz" cus
           freq i.achieved_mhz)
        ok

  let empty = { table1 = []; physical = []; columns = []; analytic = [] }

  let add d call f =
    let what =
      match call with
      | Table1 -> "table1"
      | Physical -> "physical"
      | Scaling Columns -> "scaling columns"
      | Scaling Analytic -> "scaling analytic"
    in
    match Outcome.op what f with
    | None -> d
    | Some (`Syn table1) ->
        List.iter check_syn table1;
        { d with table1 }
    | Some (`Impl impls) -> (
        List.iter (check_impl call) impls;
        match call with
        | Physical -> { d with physical = impls }
        | Scaling Columns -> { d with columns = impls }
        | _ -> { d with analytic = impls })

  let pass ctx =
    sta_ms := 0.;
    let impls l = `Impl (List.map impl_of l) in
    List.fold_left
      (fun d call ->
        add d call @@ fun () ->
        Layer.gc "flow" @@ fun () ->
        match call with
        | Table1 ->
            `Syn
              (List.map
                 (fun (s : Flow.synthesis) ->
                   syn_of s.syn_report s.syn_map s.syn_perf)
                 (Versions.table1_syntheses ~parallel:false ()))
        | Physical -> impls (Versions.physical ~parallel:false ())
        | Scaling place ->
            impls
              (Versions.scaling ~parallel:false ~place ~cu_counts:scaling_cus
                 ()))
      empty (shuffle ctx.rng ctx.calls)

  let check_traced _ _ = ()

  let counts d =
    let syns = d.table1 @ List.map (fun i -> i.syn) (d.physical @ d.columns @ d.analytic) in
    [
      ("dse.sta_calls", sum (fun s -> s.sta_calls) syns);
      ("dse.sta_full", sum (fun s -> s.sta_full) syns);
      ("dse.syntheses", List.length syns);
    ]

  let layers = [ "rtlgen."; "hw."; "dse."; "synth."; "layout."; "flow." ]

  (* The program's own spans: [Flow] wraps each phase in a [flow.*]
     span, the base netlists of [Versions] are [rtlgen.generate] spans,
     and the analytical placer is a [layout.place] span inside
     [flow.floorplan]. *)
  let layer_values d rows =
    let span = total_ms rows in
    let count n = float_of_int (List.assoc n (counts d)) in
    let iterations =
      Option.value ~default:0
        (Metrics.find_counter (Metrics.ambient_snapshot ()) "dse.iterations")
    in
    let alloc_mw, _ = Layer.gc_under "flow" in
    [
      ("rtlgen.generate_ms", span "rtlgen.generate");
      ("hw.netlist_copy_ms", span "flow.generate");
      ("dse.explore_ms", span "flow.dse");
      ("dse.sta_ms", !sta_ms);
      ("dse.sta_calls", count "dse.sta_calls");
      ("dse.sta_full", count "dse.sta_full");
      ("dse.iterations", float_of_int iterations);
      ("synth.report_ms", span "flow.report");
      ("layout.floorplan_ms", span "flow.floorplan" -. span "layout.place");
      ("layout.place_ms", span "layout.place");
      ("layout.post_timing_ms", span "flow.post_timing");
      ("layout.route_ms", span "flow.route");
      ("flow.alloc_mw", alloc_mw);
    ]
end
