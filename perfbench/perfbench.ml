(* The repository benchmark.  One workload per invocation:

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
       [--daemon PATH-TO-gpuplanner.exe]

   With [--trace 0] it measures the end-to-end metrics with tracing
   off; with [--trace 1] it makes a separate traced run that yields the
   per-layer metrics.  Human-readable tables go to stdout first; the
   last stdout line is one JSON object {correct, attempted, failed,
   metrics}.  The exit code is non-zero on any wrong output or
   determinism mismatch.  See README.md for the workloads and metrics. *)

module Json = Ggpu_obs.Json
module Trace = Ggpu_obs.Trace
module Profile = Ggpu_obs.Profile
module Metrics = Ggpu_obs.Metrics

let now = Unix.gettimeofday

(* Runtime output (traces, the daemon socket and log, recorded exact
   counts) stays inside the checkout, in one ignored directory. *)
let out_dir = ".perfbench"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755

(* --- metric catalogue ----------------------------------------------------- *)

(* Every workload prints every end-to-end metric. *)
let end_to_end = [ ("setup_s", "s"); ("cost_ratio", "x"); ("peak_rss_mb", "MB") ]

let kernels = List.map (fun (w : Ggpu_kernels.Suite.t) -> w.name) Ggpu_kernels.Suite.all

(* A workload prints the per-layer metrics of the layers it measures
   and 0 for the others, which it never calls; a metric missing from a
   layer it measures is a failure. *)
let per_layer =
  [
    ("kernels.compile_fgpu_ms", "ms");
    ("kernels.compile_rv32_ms", "ms");
    ("kernels.compile_calls", "count");
    ("kernels.compile_alloc_mw", "Mword");
    ("fgpu.run_ms", "ms");
  ]
  @ List.map (fun k -> ("fgpu.run_ms." ^ k, "ms")) kernels
  @ [
      ("fgpu.cycles", "cycles");
      ("fgpu.wf_instructions", "count");
      ("fgpu.wf_instr_per_s", "1/s");
      ("fgpu.alloc_mw", "Mword");
      ("fgpu.major_gcs", "count");
      ("riscv.run_ms", "ms");
      ("riscv.cycles", "cycles");
      ("compare.speedups_ms", "ms");
      ("rtlgen.generate_ms", "ms");
      ("hw.netlist_copy_ms", "ms");
      ("dse.explore_ms", "ms");
      ("dse.sta_ms", "ms");
      ("dse.sta_calls", "count");
      ("dse.sta_full", "count");
      ("dse.iterations", "count");
      ("synth.report_ms", "ms");
      ("layout.floorplan_ms", "ms");
      ("layout.place_ms", "ms");
      ("layout.post_timing_ms", "ms");
      ("layout.route_ms", "ms");
      ("flow.alloc_mw", "Mword");
      ("pass.wall_ms", "ms");
      ("trace.overhead_pct", "%");
      ("trace.layer_coverage", "ratio");
    ]
  @ Openloop.per_layer

(* --- exact counts across runs --------------------------------------------- *)

(* The exact counts of a run are recorded under a digest of this
   executable, so a later run of the same build must reproduce them;
   a rebuilt program starts a fresh record. *)
let check_counts_across_runs ~key counts =
  let exe = Digest.to_hex (Digest.file Sys.executable_name) in
  let path = Filename.concat out_dir (Printf.sprintf "counts-%s-%s" key exe) in
  let render =
    String.concat "" (List.map (fun (k, v) -> Printf.sprintf "%s %d\n" k v) counts)
  in
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    let recorded = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Outcome.expect
      (Printf.sprintf "exact counts differ from an earlier run of this build (%s)"
         path)
      (String.equal recorded render)
  end
  else begin
    let oc = open_out_bin path in
    output_string oc render;
    close_out oc
  end

(* --- in-process workloads ------------------------------------------------- *)

(* Median of each named value over several passes. *)
let medians (passes : (string * float) list list) =
  match passes with
  | [] -> []
  | first :: _ ->
      List.map
        (fun (name, _) ->
          (name, Bstat.median (List.map (fun p -> List.assoc name p) passes)))
        first

(* The traced run's named layers must cover this share of a traced pass. *)
let min_layer_coverage = 0.9

let run_inproc (module W : Inproc.WORKLOAD) ~name ~seed ~seconds ~trace =
  (* wall and CPU milliseconds of one pass *)
  let pass_ms ctx =
    let t0 = now () and c0 = Calib.cpu_s () in
    let d = W.pass ctx in
    (d, (now () -. t0) *. 1e3, (Calib.cpu_s () -. c0) *. 1e3)
  in
  (* Set-up is input generation plus one untimed warm-up pass; it is
     repeated and reported as a median, so work moved into set-up shows. *)
  let set_up () =
    let t0 = now () in
    let ctx = W.prepare ~seed in
    let d = W.pass ctx in
    (now () -. t0, ctx, d)
  in
  let setup_s, ctx, reference = set_up () in
  let same what d =
    Outcome.expect (name ^ ": " ^ what ^ " differs from the first pass") (d = reference)
  in
  (* the repeats keep only their time, so they leave peak RSS alone *)
  let setup_times =
    setup_s
    :: List.init
         (if trace then 0 else 4)
         (fun _ ->
           let s, _, d = set_up () in
           same "a set-up pass" d;
           s)
  in
  check_counts_across_runs ~key:name (W.counts reference);
  let deadline = now () +. seconds in
  if not trace then begin
    (* the reference runs between passes; each pass is set against
       the mean of the two runs around it *)
    let walls = ref [] and cpus = ref [] and costs = ref [] in
    let ref_before = ref (Calib.time_ms ~rounds:1) in
    while !walls = [] || now () < deadline do
      let d, ms, cpu = pass_ms ctx in
      let ref_after = Calib.time_ms ~rounds:1 in
      same "a timed pass" d;
      walls := ms :: !walls;
      cpus := cpu :: !cpus;
      costs := (cpu /. ((!ref_before +. ref_after) /. 2.)) :: !costs;
      ref_before := ref_after
    done;
    let show xs = String.concat " " (List.rev_map (Printf.sprintf "%.0f") xs) in
    Printf.printf "%s: %d passes\n  wall ms: %s\n  cpu ms:  %s\n  cost:    %s\n" name
      (List.length !walls) (show !walls) (show !cpus)
      (String.concat " " (List.rev_map (Printf.sprintf "%.2f") !costs));
    Printf.printf "  medians: wall %.1f ms, cpu %.1f ms\n" (Bstat.median !walls)
      (Bstat.median !cpus);
    [
      ("setup_s", Bstat.median setup_times);
      ("cost_ratio", Bstat.median !costs);
      ("peak_rss_mb", Host.vm_hwm_mb ~pid:"self");
    ]
  end
  else begin
    (* Untraced and traced passes alternate, so the tracing overhead
       compares passes made under the same conditions. *)
    let plain = ref [] and traced = ref [] and last = ref None in
    while !traced = [] || now () < deadline do
      let d, ms, _ = pass_ms ctx in
      same "an untraced pass" d;
      plain := ms :: !plain;
      Layer.reset ();
      Trace.reset ();
      Metrics.ambient_reset ();
      Metrics.set_ambient_enabled true;
      Trace.enable ();
      let d, wall_ms, _ = pass_ms ctx in
      Trace.disable ();
      Metrics.set_ambient_enabled false;
      same "a traced pass" d;
      let events = Trace.events () in
      let rows = Profile.self_times events in
      (* every span of a traced pass lies inside a layer call, so the
         self times add up to the time spent in named layers *)
      let covered_ms =
        List.fold_left (fun acc (r : Profile.row) -> acc +. float_of_int r.self_ns) 0. rows
        /. 1e6
      in
      traced :=
        (wall_ms, ("trace.layer_coverage", covered_ms /. wall_ms) :: W.layer_values d rows)
        :: !traced;
      last := Some (d, events)
    done;
    let d, events = Option.get !last in
    W.check_traced ctx d;
    Layer.write_trace (Filename.concat out_dir (name ^ ".trace.json")) (Trace.events_to_json events);
    Format.printf "self time by span, last traced pass:@.%a@." Profile.pp_table
      (Profile.self_times events);
    let traced_ms = Bstat.median (List.map fst !traced) in
    let plain_ms = Bstat.median !plain in
    Printf.printf "%s: %d traced passes, median %.1f ms traced vs %.1f ms untraced\n"
      name (List.length !traced) traced_ms plain_ms;
    let values = medians (List.map snd !traced) in
    let coverage = List.assoc "trace.layer_coverage" values in
    Outcome.expect
      (Printf.sprintf "named layers cover %.3f of a traced pass, under %.2f" coverage
         min_layer_coverage)
      (coverage >= min_layer_coverage);
    ("pass.wall_ms", plain_ms)
    :: ("trace.overhead_pct", ((traced_ms /. plain_ms) -. 1.) *. 100.)
    :: values
  end

(* --- command line --------------------------------------------------------- *)

let workloads = [ "paper-compare"; "flow-grid"; "serve-openloop" ]

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload (paper-compare|flow-grid|serve-openloop) \
     --seed N --seconds S --trace 0|1 [--daemon PATH]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None and daemon = ref "" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: v :: rest ->
        trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
        parse rest
    | "--daemon" :: v :: rest -> daemon := v; parse rest
    | [] -> ()
    | arg :: _ ->
        prerr_endline ("perfbench: unknown argument " ^ arg);
        usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed, seconds, trace =
    match (!seed, !seconds, !trace) with
    | Some s, Some t, Some tr when List.mem !workload workloads && t > 0. -> (s, t, tr)
    | _ -> usage ()
  in
  ensure_out_dir ();
  let inproc (module W : Inproc.WORKLOAD) =
    (run_inproc (module W) ~name:!workload ~seed ~seconds ~trace, "pass." :: "trace." :: W.layers)
  in
  let values, layers =
    try
      match !workload with
      | "paper-compare" -> inproc (module Inproc.Paper_compare)
      | "flow-grid" -> inproc (module Inproc.Flow_grid)
      | _ ->
          ( Openloop.run ~daemon:!daemon ~out_dir ~seed ~seconds ~trace
              ~check_counts:
                (check_counts_across_runs
                   ~key:(Printf.sprintf "serve-seed%d-%gs" seed seconds)),
            Openloop.layers )
    with e ->
      Outcome.fail ("run aborted: " ^ Printexc.to_string e);
      ([], [])
  in
  let catalogue = if trace then per_layer else end_to_end in
  let measured name =
    (not trace) || List.exists (fun prefix -> String.starts_with ~prefix name) layers
  in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v =
          match List.assoc_opt name values with
          | Some v -> v
          | None when measured name && values <> [] ->
              Outcome.fail (name ^ " was not measured");
              0.
          | None -> 0.
        in
        if not (Float.is_finite v) then Outcome.fail (name ^ " is not a finite number");
        Printf.printf "  %-34s %16.4f %s\n" name v unit;
        ( name,
          Json.Obj
            [
              ("value", Json.Float (if Float.is_finite v then v else 0.));
              ("unit", Json.String unit);
            ] ))
      catalogue
  in
  let correct = !Outcome.failed = 0 in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int (max 1 !Outcome.attempted));
            ("failed", Json.Int !Outcome.failed);
            ("metrics", Json.Obj metrics);
          ]));
  exit (if correct then 0 else 1)
