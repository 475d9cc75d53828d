(* A fixed reference computation, independent of the program, timed
   beside the workload to follow how fast the host runs at the moment:
   on a shared host the same pass can take 1.6 times as long in a busy
   spell as in a calm one, in CPU time as well as in wall time.

   It allocates nothing after start-up, so its time does not depend on
   the heap the workload leaves behind. *)

let n = 40_000
let data = Array.init n (fun i -> ((i * 7919) + 13) land 0xfffff)
let scratch = Array.make n 0
let slots = 1 lsl 16
let table = Array.make slots (-1)

(* Insert [v] into the open-addressing table, probing linearly. *)
let rec insert v h =
  let s = table.(h) in
  if s = -1 then table.(h) <- v
  else if s <> v then insert v ((h + 1) land (slots - 1))

(* Sort a copy of a fixed array and hash its values: integer work and
   memory traffic, like the program's own. *)
let work ~rounds =
  for _ = 1 to rounds do
    Array.blit data 0 scratch 0 n;
    Array.sort Int.compare scratch;
    Array.fill table 0 slots (-1);
    for i = 0 to n - 1 do
      let v = scratch.(i) in
      insert v ((v * 0x9E3779B1) land (slots - 1))
    done
  done;
  table.(0)

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* CPU milliseconds of [rounds] rounds of [work], about 17 ms each on
   a 2-core x86 container in a calm spell. *)
let time_ms ~rounds =
  let c0 = cpu_s () in
  ignore (Sys.opaque_identity (work ~rounds));
  (cpu_s () -. c0) *. 1e3
