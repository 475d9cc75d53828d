(* serve-openloop: the planning daemon as a child process, driven
   open-loop by one single-threaded generator.

   Requests go out on one Unix-socket connection at fixed arrival rates
   (constant spacing), whether or not earlier ones have been answered,
   and each latency is timed from the request's due time, so a stall
   counts against every request queued behind it.  A second connection
   pings the daemon while the load runs.  The run is a sequence of
   segments at fixed rates, each rate in several segments spread through
   the run, so a slow spell of the host does not fall on one rate alone.

   The request stream is made from the seed alone: a hot set of keys
   with Zipf popularity, and a steady share of first-seen keys spread
   evenly through every phase.  First-seen keys cycle through a fixed
   pattern of cost classes (the seed only picks parameters inside a
   class), so every seed asks for the same amount of cold work. *)

module Json = Ggpu_obs.Json
module Proto = Ggpu_serve.Proto
module Client = Ggpu_serve.Client

let now = Unix.gettimeofday

(* --- settings (README.md explains the choices) ---------------------------- *)

(* Fixed arrival rates (requests/s).  The first is the base rate the
   latency metrics are read at; the last is past saturation, and the
   rate at which it is answered is the daemon's capacity. *)
let rates = [| 300.; 700.; 1400.; 4000. |]

(* The segments of a run in order: (index into [rates], share of the
   run).  The base rate takes 60% of the run in six blocks, the others
   15/15/10% in two blocks each. *)
let segments =
  [| (0, 0.1); (1, 0.075); (0, 0.1); (2, 0.075); (0, 0.1); (3, 0.05);
     (0, 0.1); (1, 0.075); (0, 0.1); (2, 0.075); (0, 0.1); (3, 0.05) |]

(* The p99 limit of [serve.max_rps_at_limit]: above a cache hit's
   socket round trip (under 1 ms) and below the slowest cold misses
   (about 20-30 ms in the daemon), so hits waiting behind cold misses
   in their batch decide it. *)
let latency_limit_ms = 25.

let fresh_share = 0.05
let hot_keys = 64
let ping_interval_s = 0.02
(* bounds a stuck phase, so a run ends well within 180 s *)
let drain_timeout_s = 20.
let setup_repeats = 5

(* --- keys ------------------------------------------------------------------ *)

type cls = Light_sim | Perf | Synth | Mid_sim | Heavy_sim

(* Cost classes, measured cold on one core: light sims 0.1-2 ms, perf
   reports 0.1-0.7 ms, syntheses 0.3-4 ms, parallel_sel at 192-320
   items 3-8 ms, xcorr at 464-512 items 20-25 ms.  xcorr carries the
   heavy class because its cost grows smoothly with size and hardly
   with the CU count, so the band is narrow whatever the seed draws. *)
let fresh_class k = [| Light_sim; Synth; Perf; Mid_sim; Heavy_sim |].(k mod 5)

let hot_pattern = [| Light_sim; Synth; Perf; Light_sim; Mid_sim; Synth; Light_sim; Heavy_sim |]
let light_kernels = [| "copy"; "vec_mul"; "fir"; "div_int"; "mat_mul" |]

(* The daemon's own memo key, so two sizes that round to one legal size
   are one key. *)
let kind_label kind =
  match Ggpu_serve.Engine.key_of_request (Proto.mk_request ~id:0 kind) with
  | Ok key -> key
  | Error e -> failwith ("serve-openloop: unkeyable request: " ^ e)

(* The [n]th key of a class: kernels rotate, so every seed draws the
   same kernel mix; the seed picks CU counts, sizes and frequencies. *)
let draw_kind rng cls n =
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let between lo hi = lo + Random.State.int rng (hi - lo + 1) in
  let light = light_kernels.(n mod Array.length light_kernels) in
  let cus = pick [| 1; 2; 4; 8 |] in
  match cls with
  | Light_sim -> Proto.Sim { kernel = light; cus; size = between 256 1024 }
  | Perf -> Proto.Perf { kernel = light; cus = pick [| 1; 2; 4 |]; size = between 128 512 }
  | Synth -> Proto.Synth { cus; freq_mhz = between 450 667 }
  | Mid_sim -> Proto.Sim { kernel = "parallel_sel"; cus; size = between 192 320 }
  | Heavy_sim -> Proto.Sim { kernel = "xcorr"; cus = between 1 8; size = between 464 512 }

(* A key not drawn before.  Every class has at least 390 keys; a run
   of 30 s draws about 270 of each. *)
let fresh_kind rng used drawn cls =
  let n = Option.value ~default:0 (Hashtbl.find_opt drawn cls) in
  Hashtbl.replace drawn cls (n + 1);
  let rec go attempts =
    if attempts = 0 then failwith "serve-openloop: key space of a cost class exhausted";
    let k = draw_kind rng cls n in
    let label = kind_label k in
    if Hashtbl.mem used label then go (attempts - 1)
    else begin
      Hashtbl.add used label ();
      k
    end
  in
  go 1000

type request = { id : int; kind : Proto.kind; label : string; due : float }

type stream = {
  hot : Proto.kind array;  (** warmed before the timed segments *)
  phases : request array array;  (** one per segment; due times relative to its start *)
}

let make_stream ~seed ~seconds =
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let used = Hashtbl.create 512 and drawn = Hashtbl.create 8 in
  let hot =
    Array.init hot_keys (fun i ->
        fresh_kind rng used drawn hot_pattern.(i mod Array.length hot_pattern))
  in
  (* Zipf(1) over the hot set *)
  let weights = Array.init hot_keys (fun r -> 1. /. float_of_int (r + 1)) in
  let total = Array.fold_left ( +. ) 0. weights in
  let zipf () =
    let u = Random.State.float rng total in
    let rec go i acc =
      let acc = acc +. weights.(i) in
      if u < acc || i = hot_keys - 1 then hot.(i) else go (i + 1) acc
    in
    go 0 0.
  in
  let next_id = ref 0 and nth_fresh = ref 0 in
  let phases =
    Array.map
      (fun (r, share) ->
        let rate = rates.(r) in
        let n = int_of_float (rate *. seconds *. share) in
        let offset = Random.State.float rng 1. in
        Array.init n (fun j ->
            (* a first-seen key whenever the running share crosses an integer *)
            let fresh =
              Float.to_int ((float_of_int (j + 1) +. offset) *. fresh_share)
              > Float.to_int ((float_of_int j +. offset) *. fresh_share)
            in
            let kind =
              if fresh then begin
                let cls = fresh_class !nth_fresh in
                incr nth_fresh;
                fresh_kind rng used drawn cls
              end
              else zipf ()
            in
            incr next_id;
            { id = !next_id; kind; label = kind_label kind; due = float_of_int j /. rate }))
      segments
  in
  { hot; phases }

(* --- the daemon ------------------------------------------------------------ *)

let domains = max 1 (min 2 (Domain.recommended_domain_count ()))

type daemon = { pid : int; socket : string }

let spawn ~exe ~out_dir ~recorder =
  let socket = Filename.concat out_dir "serve.sock" in
  let log =
    Unix.openfile (Filename.concat out_dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  (* stdin: a pipe whose writing end is closed at once *)
  let null, w = Unix.pipe ~cloexec:true () in
  Unix.close w;
  let args =
    [| exe; "serve"; "--socket"; socket; "--domains"; string_of_int domains;
       "--recorder"; string_of_int recorder;
       (* a backlog past saturation must queue, not be refused *)
       "--queue-capacity"; "65536";
       (* no slow-request log lines during the run *)
       "--slow-ms"; "600000" |]
  in
  let pid = Unix.create_process exe args null log log in
  Unix.close null;
  Unix.close log;
  { pid; socket }

(* Poll until the daemon answers a ping. *)
let wait_ready d ~t0 =
  let rec go () =
    if now () -. t0 > 30. then failwith "daemon did not answer a ping within 30 s";
    match Client.connect ~socket:d.socket with
    | c ->
        let ok = Client.ping c in
        Client.close c;
        if not ok then go ()
    | exception Unix.Unix_error _ ->
        Unix.sleepf 0.001;
        go ()
  in
  go ()

let with_client d f =
  let c = Client.connect ~socket:d.socket in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let stop d =
  let acked = try with_client d Client.shutdown with Unix.Unix_error _ -> false in
  if not acked then (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  waitpid_retry d.pid

(* --- non-blocking NDJSON connections -------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  out : Buffer.t;
  mutable written : int;  (** bytes of [out] already sent *)
  mutable sent_total : int;  (** bytes sent on this connection, ever *)
  mutable queued_total : int;  (** bytes queued on this connection, ever *)
  inbuf : Buffer.t;
}

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Unix.set_nonblock fd;
  {
    fd;
    out = Buffer.create 65536;
    written = 0;
    sent_total = 0;
    queued_total = 0;
    inbuf = Buffer.create 65536;
  }

let send c line =
  Buffer.add_string c.out line;
  Buffer.add_char c.out '\n';
  c.queued_total <- c.queued_total + String.length line + 1

let pending_out c = Buffer.length c.out - c.written

(* Write what the socket takes, at most 64 KiB per write call, so a
   backlog past saturation is not copied whole on every loop turn. *)
let flush c =
  let rec go () =
    let len = min (pending_out c) 65536 in
    if len > 0 then
      match Unix.write_substring c.fd (Buffer.sub c.out c.written len) 0 len with
      | n ->
          c.written <- c.written + n;
          c.sent_total <- c.sent_total + n;
          if pending_out c = 0 then begin
            Buffer.clear c.out;
            c.written <- 0
          end
          else if n = len then go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  go ()

let chunk = Bytes.create 65536

(* Read what is available and hand each complete line to [f]. *)
let receive c f =
  let rec go () =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> failwith "daemon closed the connection"
    | n ->
        Buffer.add_subbytes c.inbuf chunk 0 n;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  go ();
  let data = Buffer.contents c.inbuf in
  match String.rindex_opt data '\n' with
  | None -> ()
  | Some last ->
      Buffer.clear c.inbuf;
      Buffer.add_string c.inbuf
        (String.sub data (last + 1) (String.length data - last - 1));
      List.iter
        (fun l -> if l <> "" then f l)
        (String.split_on_char '\n' (String.sub data 0 last))

(* --- one run --------------------------------------------------------------- *)

type phase_result = {
  rate : float;
  sent : int;
  ok : int;
  failed : int;
  lat_ms : float list;  (** every answered request, from its due time *)
  hit_ms : float list;  (** the answers served from the cache *)
  late_ms : float list;  (** time the request's last byte was written minus its due time *)
  tail_median_ms : float;  (** median latency of the segment's last tenth *)
  answer_rps : float;  (** answers per second, first due time to last answer *)
  cpu_ms : float;  (** daemon CPU time, from the first due time to the last answer *)
}

(* Checks on one answer: status, payload, and byte identity with the
   first answer for the same key. *)
let check_response first (r : request) (resp : Proto.response) =
  let what =
    match r.kind with
    | Proto.Sim { kernel; cus; size } | Proto.Perf { kernel; cus; size } ->
        Printf.sprintf "serve %s %s %dcu size %d (id %d)" (Proto.kind_name r.kind) kernel
          cus size r.id
    | Proto.Synth { cus; freq_mhz } ->
        Printf.sprintf "serve synth %dcu@%d (id %d)" cus freq_mhz r.id
  in
  match resp.status with
  | Proto.Done -> (
      let payload_ok =
        match Proto.result_json resp with
        | None -> false
        | Some j -> (
            match Json.member "correct" j with
            | Some (Json.Bool b) -> b
            | Some _ -> false
            | None -> (match r.kind with Proto.Synth _ -> true | _ -> false))
      in
      if not payload_ok then begin
        Outcome.fail (what ^ ": payload not correct");
        false
      end
      else
        match Hashtbl.find_opt first r.label with
        | None ->
            Hashtbl.add first r.label (resp.key, resp.result);
            true
        | Some (key, bytes) ->
            let same = String.equal key resp.key && String.equal bytes resp.result in
            if not same then Outcome.fail (what ^ ": payload bytes differ from the first answer");
            same)
  | Proto.Rejected _ -> Outcome.fail (what ^ ": rejected"); false
  | Proto.Expired -> Outcome.fail (what ^ ": expired"); false
  | Proto.Failed m -> Outcome.fail (what ^ ": failed: " ^ m); false

type run_state = {
  load : conn;
  ping : conn;
  first : (string, string * string) Hashtbl.t;
  mutable ping_sent : float option;
  mutable next_ping : float;
  mutable pings_ms : float list;
}

(* CPU time (ns) used so far by every thread of process [pid]. *)
let cpu_ns pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      match
        In_channel.with_open_text
          (Filename.concat (Filename.concat dir tid) "schedstat")
          (fun ic -> Scanf.sscanf (In_channel.input_all ic) "%d" Fun.id)
      with
      | ns -> acc + ns
      | exception Sys_error _ -> acc (* the thread has just ended *))
    0 (Sys.readdir dir)

(* Send [reqs] on schedule from [t0] and collect every answer. *)
let drive st ~pid ~rate (reqs : request array) =
  let n = Array.length reqs in
  (* (end offset on the load connection, due time) of requests queued
     but not yet fully written *)
  let unsent = Queue.create () in
  let outstanding = Hashtbl.create 1024 in
  let lat = ref [] and hits = ref [] and late = ref [] and ok = ref 0 and failed = ref 0 in
  let last_answer = ref 0. in
  let by_index = Array.make n nan in
  let t0 = now () +. 0.01 in
  let cpu0 = cpu_ns pid in
  let i = ref 0 in
  let last_due = if n = 0 then t0 else t0 +. reqs.(n - 1).due in
  let on_answer line =
    let t = now () in
    last_answer := t;
    match Proto.response_of_line line with
    | Error e -> Outcome.fail ("unparsable answer: " ^ e)
    | Ok resp -> (
        match Hashtbl.find_opt outstanding resp.id with
        | None -> Outcome.fail (Printf.sprintf "answer to unknown id %d" resp.id)
        | Some j ->
            Hashtbl.remove outstanding resp.id;
            let r = reqs.(j) in
            let ms = (t -. (t0 +. r.due)) *. 1e3 in
            by_index.(j) <- ms;
            if check_response st.first r resp then begin
              incr ok;
              lat := ms :: !lat;
              if resp.cached then hits := ms :: !hits
            end
            else begin
              (* a failed answer misses any latency limit *)
              incr failed;
              lat := infinity :: !lat
            end)
  in
  let on_ping _line =
    match st.ping_sent with
    | Some s ->
        st.pings_ms <- ((now () -. s) *. 1e3) :: st.pings_ms;
        st.ping_sent <- None
    | None -> Outcome.fail "unexpected line on the ping connection"
  in
  let deadline = last_due +. drain_timeout_s in
  while (!i < n || Hashtbl.length outstanding > 0) && now () < deadline do
    let t = now () in
    while !i < n && t0 +. reqs.(!i).due <= t do
      let r = reqs.(!i) in
      Outcome.attempted := !Outcome.attempted + 1;
      send st.load (Proto.request_to_line (Proto.mk_request ~id:r.id r.kind));
      Queue.push (st.load.queued_total, t0 +. r.due) unsent;
      Hashtbl.replace outstanding r.id !i;
      incr i
    done;
    if st.ping_sent = None && t >= st.next_ping then begin
      send st.ping (Proto.control_to_line Proto.Ping);
      st.ping_sent <- Some t;
      st.next_ping <- t +. ping_interval_s
    end;
    flush st.load;
    flush st.ping;
    let written = now () in
    while (not (Queue.is_empty unsent)) && fst (Queue.peek unsent) <= st.load.sent_total do
      late := ((written -. snd (Queue.pop unsent)) *. 1e3) :: !late
    done;
    let next_due = if !i < n then t0 +. reqs.(!i).due else infinity in
    let timeout = Float.max 0. (Float.min 0.01 (Float.min next_due st.next_ping -. now ())) in
    let writers = List.filter (fun c -> pending_out c > 0) [ st.load; st.ping ] in
    match Unix.select [ st.load.fd; st.ping.fd ] (List.map (fun c -> c.fd) writers) [] timeout with
    | readable, _, _ ->
        if List.mem st.load.fd readable then receive st.load on_answer;
        if List.mem st.ping.fd readable then receive st.ping on_ping
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Hashtbl.iter
    (fun id _ ->
      incr failed;
      lat := infinity :: !lat;
      Outcome.fail (Printf.sprintf "serve id %d: no answer within %.0f s" id drain_timeout_s))
    outstanding;
  let tenth = Array.sub by_index (n - (n / 10)) (n / 10) in
  {
    rate;
    sent = !i;
    ok = !ok;
    failed = !failed;
    lat_ms = !lat;
    hit_ms = !hits;
    late_ms = !late;
    tail_median_ms =
      (* an unanswered request counts as infinitely late *)
      Bstat.median
        (Array.to_list (Array.map (fun v -> if Float.is_nan v then infinity else v) tenth));
    answer_rps = float_of_int !ok /. (!last_answer -. t0);
    cpu_ms = float_of_int (cpu_ns pid - cpu0) /. 1e6;
  }

let p99 xs = match xs with [] -> nan | _ -> Bstat.percentile xs 0.99

(* The segments run at one rate, taken together. *)
let merge rate (ps : phase_result list) =
  let total f = List.fold_left (fun acc p -> acc + f p) 0 ps in
  let all f = List.concat_map f ps in
  {
    rate;
    sent = total (fun p -> p.sent);
    ok = total (fun p -> p.ok);
    failed = total (fun p -> p.failed);
    lat_ms = all (fun p -> p.lat_ms);
    hit_ms = all (fun p -> p.hit_ms);
    late_ms = all (fun p -> p.late_ms);
    tail_median_ms = List.fold_left (fun acc p -> Float.max acc p.tail_median_ms) 0. ps;
    answer_rps = Bstat.median (List.map (fun p -> p.answer_rps) ps);
    cpu_ms = List.fold_left (fun acc p -> acc +. p.cpu_ms) 0. ps;
  }

let sustained (p : phase_result) =
  p.failed = 0 && p99 p.lat_ms <= latency_limit_ms && p.tail_median_ms <= latency_limit_ms

(* The highest rate meeting the limit with no failure and no growing
   backlog, interpolated on p99 between the last rate that meets it and
   the first that does not.  The p99 at a rate near this limit rests on
   a handful of cold misses, so it is reported per layer, not gated. *)
let max_rate (phases : phase_result array) =
  let n = Array.length phases in
  let rec first_miss k = if k = n || not (sustained phases.(k)) then k else first_miss (k + 1) in
  match first_miss 0 with
  | k when k = n -> phases.(n - 1).rate
  | 0 ->
      let p = phases.(0) in
      p.rate *. Float.min 1. (latency_limit_ms /. p99 p.lat_ms)
  | k ->
      let a = phases.(k - 1) and b = phases.(k) in
      let pa = p99 a.lat_ms and pb = p99 b.lat_ms in
      if pb <= latency_limit_ms || pb <= pa then a.rate
      else a.rate +. ((b.rate -. a.rate) *. (latency_limit_ms -. pa) /. (pb -. pa))

(* --- per-layer figures from the daemon -------------------------------------- *)

let scrape_counters text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' line with
         | [ "counter"; name; v ] -> Option.map (fun v -> (name, v)) (int_of_string_opt v)
         | _ -> None)

let num = function Some (Json.Int i) -> float_of_int i | Some (Json.Float f) -> f | _ -> nan

(* Durations (ms) of the dump's complete spans, by name. *)
let span_durations doc =
  let tbl = Hashtbl.create 8 in
  (match Option.bind (Json.member "trace" doc) (Json.member "traceEvents") with
  | Some (Json.List evs) ->
      List.iter
        (fun ev ->
          match (Json.member "name" ev, Json.member "ph" ev) with
          | Some (Json.String name), Some (Json.String "X") ->
              let ms = num (Json.member "dur" ev) /. 1e3 in
              Hashtbl.replace tbl name
                (ms :: Option.value ~default:[] (Hashtbl.find_opt tbl name))
          | _ -> ())
        evs
  | _ -> Outcome.fail "dump carried no trace events");
  fun name -> Option.value ~default:[] (Hashtbl.find_opt tbl name)

let per_layer =
  [
    ("serve.queue_wait_ms.p50", "ms");
    ("serve.queue_wait_ms.p99", "ms");
    ("serve.execute_ms.p50", "ms");
    ("serve.execute_ms.p99", "ms");
    ("serve.reply_ms.p99", "ms");
    ("serve.batch_size.mean", "count");
    ("serve.cache.hit_ratio", "ratio");
    ("serve.miss", "count");
    ("serve.coalesced", "count");
    ("serve.rejected", "count");
    ("serve.expired", "count");
    ("serve.failed", "count");
    ("serve.kernel.compile", "count");
    ("serve.netlist.build", "count");
    ("serve.p50_ms", "ms");
    ("serve.p99_ms", "ms");
    ("serve.hit_p99_ms", "ms");
    ("serve.max_rps_at_limit", "1/s");
    ("serve.saturation_rps", "1/s");
    ("serve.cpu_ms_per_1000", "ms");
    ("daemon.ping_ms.p99", "ms");
    ("par.busy_ratio", "ratio");
    ("openloop.late_ms.p99", "ms");
    ("openloop.late_ms.max", "ms");
  ]
  @ List.concat
      (List.init (Array.length rates) (fun k ->
           let p = Printf.sprintf "openloop.rate%d." (k + 1) in
           [
             (p ^ "answered_rps", "1/s");
             (p ^ "sent", "count");
             (p ^ "ok", "count");
             (p ^ "failed", "count");
             (p ^ "p99_ms", "ms");
           ]))

let layers = [ "serve."; "daemon."; "par."; "openloop." ]

(* Simulated cycles summed over the first answers of the sim and perf
   keys: a count the program's simulator decides, so it must repeat for
   a seed. *)
let cold_cycles first =
  Hashtbl.fold
    (fun _ (_, bytes) acc ->
      match Option.bind (Result.to_option (Json.parse bytes)) (Json.member "stats") with
      | Some stats -> (
          match Json.member "cycles" stats with Some (Json.Int c) -> acc + c | _ -> acc)
      | None -> acc)
    first 0

(* --- entry point ------------------------------------------------------------ *)

let run ~daemon:exe ~out_dir ~seed ~seconds ~trace ~check_counts =
  if exe = "" then failwith "serve-openloop needs --daemon PATH-TO-gpuplanner.exe";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let stream = make_stream ~seed ~seconds in
  let total = Array.fold_left (fun acc p -> acc + Array.length p) 0 stream.phases in
  let recorder = if trace then total + hot_keys + 1024 else 256 in
  let warm =
    Array.mapi
      (fun j kind -> { id = -(j + 1); kind; label = kind_label kind; due = 0. })
      stream.hot
  in
  (* Set-up: daemon spawn to the end of an untimed warm-up pass that
     asks every hot key once, each time on a fresh daemon; reported as
     a median.  Only the last daemon stays up for the timed segments. *)
  let set_up () =
    let t0 = now () in
    let d = spawn ~exe ~out_dir ~recorder in
    match
      wait_ready d ~t0;
      let st =
        {
          load = connect d.socket;
          ping = connect d.socket;
          first = Hashtbl.create 1024;
          ping_sent = None;
          next_ping = now ();
          pings_ms = [];
        }
      in
      let warmed = drive st ~pid:d.pid ~rate:0. warm in
      (now () -. t0, d, st, warmed)
    with
    | r -> r
    | exception e ->
        stop d;
        raise e
  in
  let close_conns st =
    Unix.close st.load.fd;
    Unix.close st.ping.fd
  in
  let repeats = if trace then 1 else setup_repeats in
  let setups =
    List.init repeats (fun k ->
        let (_, d, st, _) as r = set_up () in
        if k < repeats - 1 then begin
          close_conns st;
          stop d
        end;
        r)
  in
  let _, d, st, warmed = List.nth setups (repeats - 1) in
  at_exit (fun () -> try Unix.kill d.pid Sys.sigkill; waitpid_retry d.pid with Unix.Unix_error _ -> ());
  st.pings_ms <- [];
  (* The reference computation runs before the first segment and after
     each one, while the daemon is idle; each segment's daemon CPU time
     is set against the mean of the two runs around it. *)
  let t_load = now () in
  let ref_before = ref (Calib.time_ms ~rounds:3) in
  let costs = ref 0. in
  let segs =
    Array.mapi
      (fun k reqs ->
        let p = drive st ~pid:d.pid ~rate:rates.(fst segments.(k)) reqs in
        let ref_after = Calib.time_ms ~rounds:3 in
        costs := !costs +. (p.cpu_ms /. ((!ref_before +. ref_after) /. 2.));
        ref_before := ref_after;
        p)
      stream.phases
  in
  let load_s = now () -. t_load in
  close_conns st;
  let counters = with_client d (fun c -> Client.scrape c) in
  let counters = match counters with Ok t -> scrape_counters t | Error e -> Outcome.fail e; [] in
  let counter n = Option.value ~default:0 (List.assoc_opt n counters) in
  let distinct = Hashtbl.length st.first in
  let answered = Array.fold_left (fun acc p -> acc + p.ok) warmed.ok segs in
  (* every first-seen key is computed exactly once; the rest are hits *)
  Outcome.expect
    (Printf.sprintf "serve.cache.miss = %d, but %d distinct keys were asked"
       (counter "serve.cache.miss") distinct)
    (counter "serve.cache.miss" = distinct);
  Outcome.expect "hits + coalesced + misses differ from the answers"
    (counter "serve.cache.hit" + counter "serve.cache.coalesced" + counter "serve.cache.miss"
    = answered);
  check_counts [ ("serve.cold_cycles", cold_cycles st.first) ];
  let dump = if trace then Some (with_client d Client.dump) else None in
  let rss = Host.vm_hwm_mb ~pid:(string_of_int d.pid) in
  stop d;
  let at r = List.filteri (fun k _ -> fst segments.(k) = r) (Array.to_list segs) in
  let phases = Array.mapi (fun r rate -> merge rate (at r)) rates in
  Printf.printf "p99-limit (%.0f ms) capacity: %.1f/s\n" latency_limit_ms (max_rate phases);
  Array.iter
    (fun p ->
      Printf.printf
        "rate %6.0f/s: sent %5d ok %5d failed %d  answered %6.0f/s  p50 %7.2f ms  p99 %7.2f ms  hit p99 %7.2f ms  last-tenth median %7.2f ms  late p99 %.2f ms  cpu %.1f ms/1000\n"
        p.rate p.sent p.ok p.failed p.answer_rps (Bstat.median p.lat_ms) (p99 p.lat_ms)
        (p99 p.hit_ms) p.tail_median_ms (p99 p.late_ms)
        (p.cpu_ms /. float_of_int p.ok *. 1e3))
    phases;
  let base = phases.(0) in
  let answers = Array.fold_left (fun acc p -> acc + p.ok) 0 segs in
  let per_1000 x = x /. float_of_int answers *. 1e3 in
  let cpu_ms = Array.fold_left (fun acc p -> acc +. p.cpu_ms) 0. segs in
  Printf.printf "daemon CPU per 1000 answers: %.1f ms, %.2f x the reference\n"
    (per_1000 cpu_ms) (per_1000 !costs);
  let late = List.concat_map (fun p -> p.late_ms) (Array.to_list phases) in
  if not trace then
    [
      ("setup_s", Bstat.median (List.map (fun (t, _, _, _) -> t) setups));
      ("cost_ratio", per_1000 !costs);
      ("peak_rss_mb", rss);
    ]
  else begin
    let spans =
      match dump with
      | Some (Ok doc) ->
          Layer.write_trace
            (Filename.concat out_dir "serve-openloop.trace.json")
            (Option.get (Json.member "trace" doc));
          span_durations doc
      | Some (Error e) -> Outcome.fail ("dump: " ^ e); fun _ -> []
      | None -> fun _ -> []
    in
    let pct name q = match spans name with [] -> 0. | xs -> Bstat.percentile xs q in
    let execute_ms = List.fold_left ( +. ) 0. (spans "serve.execute") in
    let hit = counter "serve.cache.hit" + counter "serve.cache.coalesced" in
    [
      ("serve.queue_wait_ms.p50", pct "serve.queue" 0.5);
      ("serve.queue_wait_ms.p99", pct "serve.queue" 0.99);
      ("serve.execute_ms.p50", pct "serve.execute" 0.5);
      ("serve.execute_ms.p99", pct "serve.execute" 0.99);
      ("serve.reply_ms.p99", pct "serve.reply" 0.99);
      ( "serve.batch_size.mean",
        float_of_int (counter "serve.requests") /. float_of_int (max 1 (counter "serve.batches")) );
      ("serve.cache.hit_ratio", float_of_int hit /. float_of_int (max 1 (hit + counter "serve.cache.miss")));
      ("serve.miss", float_of_int (counter "serve.cache.miss"));
      ("serve.coalesced", float_of_int (counter "serve.cache.coalesced"));
      ("serve.rejected", float_of_int (counter "serve.rejected"));
      ("serve.expired", float_of_int (counter "serve.expired"));
      ("serve.failed", float_of_int (counter "serve.failed"));
      ("serve.kernel.compile", float_of_int (counter "serve.kernel.compile"));
      ("serve.netlist.build", float_of_int (counter "serve.netlist.build"));
      ("serve.p50_ms", Bstat.median base.lat_ms);
      ("serve.p99_ms", p99 base.lat_ms);
      ("serve.hit_p99_ms", p99 base.hit_ms);
      ("serve.max_rps_at_limit", max_rate phases);
      ("serve.saturation_rps", phases.(Array.length phases - 1).answer_rps);
      ("serve.cpu_ms_per_1000", per_1000 cpu_ms);
      ("daemon.ping_ms.p99", p99 st.pings_ms);
      ("par.busy_ratio", execute_ms /. (float_of_int domains *. load_s *. 1e3));
      ("openloop.late_ms.p99", p99 late);
      ("openloop.late_ms.max", Bstat.percentile late 1.0);
    ]
    @ List.concat
        (List.mapi
           (fun k p ->
             let n = Printf.sprintf "openloop.rate%d." (k + 1) in
             [
               (n ^ "answered_rps", p.answer_rps);
               (n ^ "sent", float_of_int p.sent);
               (n ^ "ok", float_of_int p.ok);
               (n ^ "failed", float_of_int p.failed);
               (n ^ "p99_ms", p99 p.lat_ms);
             ])
           (Array.to_list phases))
  end
