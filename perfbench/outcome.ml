(* Operation accounting.  Every checked operation counts as attempted;
   a wrong output, an exception, a missing or non-Done response counts
   as failed.  Each failure is reported on stderr as it happens. *)

let attempted = ref 0
let failed = ref 0

let fail what =
  incr failed;
  prerr_endline ("perfbench: FAIL " ^ what)

let expect what ok = if not ok then fail what

(* Run one operation; an exception is a failure of that operation. *)
let op what f =
  incr attempted;
  match f () with
  | v -> Some v
  | exception e ->
      fail (what ^ ": " ^ Printexc.to_string e);
      None
