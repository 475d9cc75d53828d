(* Benchmark-side layer spans.  On the workloads whose layers the
   benchmark calls directly, every such call goes through [call].  With
   the tracer off that is the bare thunk, so end-to-end runs pay
   nothing; with it on, the call is recorded as a [bench.<layer>] span
   (times come from the trace via Profile) and the host GC work it
   caused is added to the layer's row here. *)

module Trace = Ggpu_obs.Trace

type gc = { mutable alloc_words : float; mutable major_gcs : int }

let table : (string, gc) Hashtbl.t = Hashtbl.create 32
let reset () = Hashtbl.reset table
let span_name layer = "bench." ^ layer

(* words this domain allocated, counting direct major allocations but
   not promotions (already counted once as minor words) *)
let allocated (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words

(* The host GC work of [f], added to [layer]'s row when tracing. *)
let gc layer f =
  if not (Trace.enabled ()) then f ()
  else begin
    let g0 = Gc.quick_stat () in
    let v = f () in
    let g1 = Gc.quick_stat () in
    let row =
      match Hashtbl.find_opt table layer with
      | Some r -> r
      | None ->
          let r = { alloc_words = 0.; major_gcs = 0 } in
          Hashtbl.add table layer r;
          r
    in
    row.alloc_words <- row.alloc_words +. allocated g1 -. allocated g0;
    row.major_gcs <- row.major_gcs + g1.major_collections - g0.major_collections;
    v
  end

let call layer f =
  if not (Trace.enabled ()) then f ()
  else gc layer (fun () -> Trace.with_span (span_name layer) f)

(* Sum over the layers whose name starts with [prefix]: millions of
   words allocated, and major collections. *)
let gc_under prefix =
  Hashtbl.fold
    (fun name r (w, m) ->
      if String.starts_with ~prefix name then (w +. (r.alloc_words /. 1e6), m + r.major_gcs)
      else (w, m))
    table (0., 0)

(* Write a Chrome trace and check it with the program's own validator. *)
let write_trace path doc =
  let oc = open_out_bin path in
  output_string oc (Ggpu_obs.Json.to_string doc);
  close_out oc;
  match Trace.validate_file path with
  | Ok summary -> Format.printf "trace %s: %a@." path Trace.pp_summary summary
  | Error e -> Outcome.fail ("trace validation: " ^ e)
