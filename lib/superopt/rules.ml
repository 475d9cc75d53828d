(* The checked-in rule table.

   [Rules_table.lines] is machine-generated: the output of [mine] over
   {!Search.default_space} with the default budget and seed, serialised
   through {!Rule.to_line} (hex ISA words, so every entry re-parses
   through the real decoder).  Regenerate with

     gpuplanner superopt mine --update

   which re-runs the search and rewrites lib/superopt/rules_table.ml in
   place.  Hand edits are legal (the format is the contract, not the
   provenance) but pointless: the miner reproduces the table
   deterministically. *)

let builtin_lines : string list = Rules_table.lines

let parse_lines lines =
  List.filter_map
    (fun line ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then None else Some (Rule.of_line line))
    lines

(* Kernels compile on several domains at once (the suite runner's
   grid), and forcing a lazy value that another domain is forcing
   raises [CamlinternalLazy.Undefined]; the lock serialises the first
   force. *)
let builtin = lazy (parse_lines builtin_lines)
let builtin_lock = Mutex.create ()
let default () = Mutex.protect builtin_lock (fun () -> Lazy.force builtin)

let load_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      parse_lines (List.rev !lines))

let save_file path rules =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "# ggpu_superopt rule table: lhs => rhs ; clobbers=... ; saves=cycles\n";
      output_string oc "# words are hex-encoded FGPU ISA instructions (Fgpu_isa.encode)\n";
      List.iter (fun r -> output_string oc (Rule.to_line r ^ "\n")) rules)
