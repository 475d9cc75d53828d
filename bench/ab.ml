(* A/B harness: alternate lane engines in-process to separate real
   engine differences from machine noise, and report simulated cycles
   with and without move coalescing so the cycle delta rides along
   with throughput.

   Times are process CPU time ([Sys.time]), so time the process spends
   descheduled does not count.  The engine that runs first alternates
   from rep to rep, so neither always inherits the other's heap.  Each
   run also prints the minor-heap words allocated per wavefront
   instruction ([Gc.minor_words] across the launch), the figure the
   allocation-free issue path is judged by.  Usage:
     dune exec bench/ab.exe -- [kernel] [size] [reps] [t|i|both] [cus] *)

let () =
  let arg i default = if Array.length Sys.argv > i then Sys.argv.(i) else default in
  let kernel = arg 1 "parallel_sel" in
  let size = int_of_string (arg 2 "2048") in
  let reps = int_of_string (arg 3 "5") in
  let cus = int_of_string (arg 5 "4") in
  let w = Ggpu_kernels.Suite.find kernel in
  let size = w.Ggpu_kernels.Suite.round_size size in
  let config = Ggpu_fgpu.Config.with_cus Ggpu_fgpu.Config.default cus in
  let compile coalesce =
    Ggpu_kernels.Codegen_fgpu.compile ~coalesce w.Ggpu_kernels.Suite.kernel
  in
  let compiled = compile true in
  let run ?(compiled = compiled) backend =
    let args = w.Ggpu_kernels.Suite.mk_args ~size in
    let words0 = Gc.minor_words () in
    let t0 = Sys.time () in
    let r =
      Ggpu_kernels.Run_fgpu.run ~config ~backend compiled ~args
        ~global_size:(w.Ggpu_kernels.Suite.global_size ~size)
        ~local_size:(min w.Ggpu_kernels.Suite.local_size size)
        ()
    in
    let cpu = Sys.time () -. t0 in
    let words = Gc.minor_words () -. words0 in
    (r.Ggpu_kernels.Run_fgpu.stats, cpu, words)
  in
  (* one-off simulated-cycle A/B: coalescing on (the shipping default)
     vs off — deterministic, so a single run of each suffices *)
  let opt_stats, _, _ = run Ggpu_fgpu.Gpu.Threaded in
  let base_stats, _, _ = run ~compiled:(compile false) Ggpu_fgpu.Gpu.Threaded in
  let opt_cyc = opt_stats.Ggpu_fgpu.Stats.cycles in
  let base_cyc = base_stats.Ggpu_fgpu.Stats.cycles in
  Printf.printf "%s size=%d cus=%d: %d cycles (uncoalesced %d, delta -%.2f%%)\n%!"
    kernel size cus opt_cyc base_cyc
    (100.0 *. float_of_int (base_cyc - opt_cyc) /. float_of_int (max 1 base_cyc));
  let engines =
    match arg 4 "both" with
    | "t" -> [ ("threaded", Ggpu_fgpu.Gpu.Threaded) ]
    | "i" -> [ ("interp", Ggpu_fgpu.Gpu.Interp) ]
    | _ ->
        [ ("threaded", Ggpu_fgpu.Gpu.Threaded); ("interp", Ggpu_fgpu.Gpu.Interp) ]
  in
  List.iter (fun (_, b) -> ignore (run b)) engines (* warm *);
  let best = Hashtbl.create 2 in
  for rep = 1 to reps do
    let order = if rep mod 2 = 0 then List.rev engines else engines in
    List.iter
      (fun (name, b) ->
        let stats, cpu, words = run b in
        let wf = stats.Ggpu_fgpu.Stats.wf_instructions in
        let prev = try Hashtbl.find best name with Not_found -> infinity in
        if cpu < prev then Hashtbl.replace best name cpu;
        Printf.printf "%-9s %8.1f ms cpu  %10d cyc  %.3e wf/s  %.2f minor words/wf-insn\n%!"
          name (cpu *. 1e3) stats.Ggpu_fgpu.Stats.cycles
          (float_of_int wf /. Float.max cpu 1e-9)
          (words /. float_of_int (max 1 wf)))
      order
  done;
  List.iter
    (fun (n, _) ->
      match Hashtbl.find_opt best n with
      | Some v -> Printf.printf "best %-9s %8.1f ms cpu\n" n (v *. 1e3)
      | None -> ())
    engines
