(* What an FGPU launch does besides simulating: global memory is the
   caller's native-int array changed in place (so partial results
   survive faults and watchdogs), register files are recycled across
   workgroups, coalescing takes a shortcut for the line charged last,
   and the issue path allocates (almost) nothing. *)

open Ggpu_isa
open Ggpu_fgpu
open Ggpu_kernels

let backends_and_domains =
  [ (Gpu.Interp, 1); (Gpu.Interp, 4); (Gpu.Threaded, 1); (Gpu.Threaded, 4) ]

let label backend domains =
  Printf.sprintf "%s, %d domains" (Gpu.backend_name backend) domains

(* --- coalescing shortcut vs the division rule -------------------------- *)

(* The rule before the shortcut: divide, then scan every charged line. *)
let reference_coalesce (out : Wavefront.outcome) ~line_bytes ~mem_words addr =
  let lb = addr / line_bytes * line_bytes in
  let n = out.Wavefront.mem_line_count in
  let seen = ref false in
  for i = 0 to n - 1 do
    if out.Wavefront.mem_lines.(i) = lb then seen := true
  done;
  if not !seen then begin
    out.Wavefront.mem_lines.(n) <- lb;
    out.Wavefront.mem_line_count <- n + 1
  end;
  if addr land 3 <> 0 then
    raise (Wavefront.Fault (Printf.sprintf "misaligned access 0x%x" addr));
  let w = addr lsr 2 in
  if w >= mem_words then
    raise (Wavefront.Fault (Printf.sprintf "address 0x%x out of memory" addr));
  w

let mem_words = 256

(* Run one issue's lanes through [coalesce]: the word per lane up to the
   first fault, the fault (lane, message), and the charged lines. *)
let drive coalesce ~line_bytes addrs =
  let out = Wavefront.make_outcome ~max_lanes:64 in
  let rec go lane acc = function
    | [] -> (List.rev acc, None)
    | addr :: rest -> (
        match coalesce out ~line_bytes ~mem_words addr with
        | w -> go (lane + 1) (w :: acc) rest
        | exception Wavefront.Fault msg -> (List.rev acc, Some (lane, msg)))
  in
  let words, fault = go 0 [] addrs in
  (words, fault, Array.sub out.Wavefront.mem_lines 0 out.Wavefront.mem_line_count)

(* Address sequences as one issue produces them: mostly aligned walks
   that stay in or straddle lines, with rare misaligned steps, jumps to
   negative addresses and jumps past the end of memory. *)
let gen_case =
  let open QCheck.Gen in
  let step =
    frequency
      [
        (30, map (fun k -> `Rel (4 * k)) (int_range (-4) 8));
        (1, map (fun k -> `Rel k) (int_range (-6) 6));
        (1, map (fun a -> `Abs a) (int_range (-400) (-1)));
        (1, map (fun w -> `Abs (4 * w)) (int_range (mem_words - 8) (mem_words + 64)));
        (2, map (fun w -> `Abs (4 * w)) (int_range 0 (mem_words - 1)));
      ]
  in
  let* line_words = oneofl [ 1; 3; 12; 16 ] in
  let* start = map (fun w -> 4 * w) (int_range 0 (mem_words - 1)) in
  let* steps = list_size (int_range 1 64) step in
  let _, addrs =
    List.fold_left
      (fun (cur, acc) s ->
        let a = match s with `Rel d -> cur + d | `Abs a -> a in
        (a, a :: acc))
      (start, [ start ]) steps
  in
  (* one address per lane, at most a wavefront's worth *)
  let addrs = List.filteri (fun i _ -> i < 64) (List.rev addrs) in
  return (line_words, addrs)

let print_case (lw, addrs) =
  Printf.sprintf "line_words=%d [%s]" lw
    (String.concat "; " (List.map string_of_int addrs))

let prop_coalesce_matches_reference =
  QCheck.Test.make ~name:"coalesce shortcut = division rule" ~count:1000
    (QCheck.make ~print:print_case gen_case)
    (fun (line_words, addrs) ->
      let line_bytes = 4 * line_words in
      let got = drive Wavefront.coalesce_and_check ~line_bytes addrs in
      let want = drive reference_coalesce ~line_bytes addrs in
      let _, fault, lines = got in
      (* a faulting lane's line is charged before the fault is raised *)
      let charged_first =
        match fault with
        | None -> true
        | Some (lane, _) ->
            let addr = List.nth addrs lane in
            Array.mem (addr / line_bytes * line_bytes) lines
      in
      got = want && charged_first)

(* --- register files are recycled zeroed, params preloaded -------------- *)

(* r1 = output base, r2 = a magic param.  Every item writes two words at
   out[2 * gid]: odd workgroups write 0x7777 after dirtying r10/r20 and
   then clobber r2; even workgroups read r10 | r20 before writing either
   (a recycled file must read 0) and store r2 (must be the param). *)
let reuse_program =
  Fgpu_isa.
    [|
      Special (Lid, 3);
      Special (Wgoff, 4);
      Alu (Add, 5, 4, 3);
      Alui (Sll, 6, 5, 3l);
      Alu (Add, 6, 6, 1);
      Special (Wgid, 7);
      Alui (And, 8, 7, 1l);
      Branch (Eq, 8, 0, 6) (* even -> 14 *);
      Li (10, 0x7777l);
      Li (20, 0x1111l);
      Sw (10, 6, 0);
      Sw (2, 6, 4);
      Li (2, 0x6666l);
      Jump 17;
      Alu (Or, 21, 10, 20);
      Sw (21, 6, 0);
      Sw (2, 6, 4);
      Ret;
    |]

let test_register_files_reused_clean () =
  let local_size = 128 and magic = 0x2468 in
  (* 16 workgroups, 4 resident on the single CU at a time *)
  let global_size = 16 * local_size in
  let config = Config.with_cus Config.default 1 in
  List.iter
    (fun (backend, domains) ->
      let mem = Array.make (2 * global_size) (-1) in
      let stats =
        Gpu.run ~backend ~domains config ~program:reuse_program
          ~params:[ 0l; Int32.of_int magic ] ~global_size ~local_size ~mem
      in
      Alcotest.(check int) "workgroups" 16 stats.Stats.workgroups;
      for gid = 0 to global_size - 1 do
        let odd = gid / local_size land 1 = 1 in
        Alcotest.(check (pair int int))
          (Printf.sprintf "item %d (%s)" gid (label backend domains))
          ((if odd then 0x7777 else 0), magic)
          (mem.(2 * gid), mem.((2 * gid) + 1))
      done)
    backends_and_domains

(* --- partial results live in the caller's array ------------------------ *)

(* Each item stores 0x55 to out[gid] (r1 = base), then runs [tail]. *)
let store_then tail =
  Array.append
    Fgpu_isa.
      [|
        Special (Lid, 3);
        Special (Wgoff, 4);
        Alu (Add, 5, 4, 3);
        Alui (Sll, 6, 5, 2l);
        Alu (Add, 6, 6, 1);
        Li (7, 0x55l);
        Sw (7, 6, 0);
      |]
    tail

let check_stores ~what ~items mem =
  for i = 0 to items - 1 do
    Alcotest.(check int) (Printf.sprintf "%s: out[%d] stored" what i) 0x55 mem.(i)
  done;
  Alcotest.(check int) (what ^ ": past the grid untouched") (-1) mem.(items)

let test_watchdog_keeps_stores () =
  (* the store retires, then every wavefront spins forever *)
  let program = store_then [| Fgpu_isa.Jump 7 |] in
  let items = 128 in
  List.iter
    (fun backend ->
      let mem = Array.make (items + 1) (-1) in
      (match
         Gpu.run ~backend ~max_cycles:5_000 Config.default ~program
           ~params:[ 0l ] ~global_size:items ~local_size:64 ~mem
       with
      | _ -> Alcotest.fail "expected Watchdog_timeout"
      | exception Gpu.Watchdog_timeout _ -> ());
      check_stores ~what:(Gpu.backend_name backend) ~items mem)
    [ Gpu.Interp; Gpu.Threaded ]

let test_fault_keeps_stores () =
  (* the store retires, then a misaligned load faults *)
  let program = store_then Fgpu_isa.[| Lw (8, 6, 2); Ret |] in
  let items = 64 in
  List.iter
    (fun (backend, domains) ->
      let mem = Array.make (items + 1) (-1) in
      (match
         Gpu.run ~backend ~domains Config.default ~program ~params:[ 0l ]
           ~global_size:items ~local_size:64 ~mem
       with
      | _ -> Alcotest.fail "expected a misaligned-access fault"
      | exception Wavefront.Fault msg ->
          Alcotest.(check bool) "misaligned" true
            (String.starts_with ~prefix:"misaligned" msg));
      check_stores ~what:(label backend domains) ~items mem)
    backends_and_domains

(* --- the issue path allocates (almost) nothing ------------------------- *)

let test_issue_path_allocation () =
  let w = Suite.parallel_sel and size = 512 in
  let config = Config.with_cus Config.default 4 in
  let compiled = Codegen_fgpu.compile w.Suite.kernel in
  List.iter
    (fun backend ->
      let args = w.Suite.mk_args ~size in
      let before = Gc.minor_words () in
      let r =
        Run_fgpu.run ~config ~backend compiled ~args
          ~global_size:(w.Suite.global_size ~size)
          ~local_size:(min w.Suite.local_size size)
          ()
      in
      let words = Gc.minor_words () -. before in
      let per_issue =
        words /. float_of_int r.Run_fgpu.stats.Stats.wf_instructions
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.2f minor words per wf-instruction < 4"
           (Gpu.backend_name backend) per_issue)
        true (per_issue < 4.0))
    [ Gpu.Interp; Gpu.Threaded ]

let suite =
  [
    ( "launch",
      [
        QCheck_alcotest.to_alcotest prop_coalesce_matches_reference;
        Alcotest.test_case "register files reused clean" `Quick
          test_register_files_reused_clean;
        Alcotest.test_case "watchdog keeps stores" `Quick
          test_watchdog_keeps_stores;
        Alcotest.test_case "fault keeps stores" `Quick test_fault_keeps_stores;
        Alcotest.test_case "issue path allocation" `Quick
          test_issue_path_allocation;
      ] );
  ]
