(* Live service benchmark: the client service over the live runtime.

   Usage:
     livebench --workload W --seed N --seconds S --trace 0|1 --dir DIR [--cpu C]

   One run sets a 3-node cluster up [setups] times (reporting the
   trimmed mean of the set-up times), drives the workload's load for a warm-up and
   then for a measured window of S seconds, drains, quiesces and checks the
   replicas. The window is cut into buckets of about [bucket_s] seconds;
   each end-to-end latency is the median over the buckets with the
   least host steal (see [quiet_buckets]), and the CPU per op the median
   over all of them. With --trace 0 the last stdout line is a JSON object with
   the end-to-end metrics; with --trace 1 the run repeats with causal
   tracing on, analyzes the flight dumps, and reports per-layer metrics.
   A run that fails a correctness check prints "correct": false and
   exits 1. Everything is written under DIR, which is removed at exit.
   C is the CPU the run is pinned to, whose host steal is reported. *)

module Service = Abcast_service.Service
module Runtime = Abcast_live.Runtime
module Durable = Abcast_store.Durable
module Kv = Abcast_apps.Kv
module History = Abcast_sim.History
module Doctor = Abcast_harness.Doctor

type spec = {
  name : string;
  fsync : Durable.policy;
  mode : Service.read_mode;
  writers : int;
  readers : int;
  pool : int;
  rate : float;
  read_pct : int;
  crash : bool;
}

let group_commit = Durable.Every { ops = 64; ms = 20 }

let specs =
  [
    (* closed loop at saturation: the ordering core's capacity *)
    { name = "write_sat"; fsync = group_commit; mode = Service.Broadcast;
      writers = 32; readers = 4; pool = 0; rate = 0.; read_pct = 0; crash = false };
    (* the same closed loop with an fsync per log operation *)
    { name = "write_durable"; fsync = Durable.Always; mode = Service.Broadcast;
      writers = 32; readers = 4; pool = 0; rate = 0.; read_pct = 0; crash = false };
    (* open loop, lease reads beside a few writes *)
    { name = "read_lease"; fsync = group_commit; mode = Service.Read_index;
      writers = 0; readers = 0; pool = 256; rate = 2000.; read_pct = 90; crash = false };
    (* open loop with the consensus leader crashed and recovered mid-window *)
    { name = "leader_crash"; fsync = group_commit; mode = Service.Broadcast;
      writers = 0; readers = 0; pool = 256; rate = 1000.; read_pct = 10; crash = true };
  ]

let n_nodes = 3
let setups = 25
let warmup_s = 1.5
let attempt_s = 0.5
let cap_s = 4.0
let crash_after_s = 1.0
let outage_s = 3.5
let trace_sample = 16
let traced_window_s = 12.
let flight_cap = 262144
let max_traces = 1024
let setup_session = 1_000_000
let bucket_s = 2.0
let min_bucket_samples = 20

let now = Unix.gettimeofday
let log fmt = Printf.ksprintf (fun s -> print_string s; print_newline ()) fmt

(* ---- files and ports ------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

let port_rng = Random.State.make_self_init ()

(* A base port whose n consecutive UDP ports are free right now. *)
let pick_base_port () =
  let rec try_one attempts =
    if attempts = 0 then failwith "no free UDP port range";
    let base = 20_000 + Random.State.int port_rng 40_000 in
    let socks = ref [] in
    let ok =
      try
        for i = 0 to n_nodes - 1 do
          let s = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
          socks := s :: !socks;
          Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, base + i))
        done;
        true
      with Unix.Unix_error _ -> false
    in
    List.iter Unix.close !socks;
    if ok then base else try_one (attempts - 1)
  in
  try_one 50

let create_cluster spec ~dir ~traced =
  let cfg = { Service.default_config with n = n_nodes; read_mode = spec.mode } in
  let rec go attempts =
    try
      Service.create ~base_port:(pick_base_port ()) ~dir ~backend:`Wal
        ~fsync:spec.fsync
        ?flight_cap:(if traced then Some flight_cap else None)
        ?trace_sample:(if traced then Some trace_sample else None)
        cfg
    with Unix.Unix_error _ when attempts > 1 -> go (attempts - 1)
  in
  go 5

let wait_for ?(timeout = 10.) what cond =
  let deadline = now () +. timeout in
  while not (cond ()) do
    if now () > deadline then failwith ("timed out waiting for " ^ what);
    Thread.delay 0.0002
  done

(* Set-up: from [Service.create] until the first write is acked. In
   read-index mode that includes the claim and its quarantine, since the
   claimant acks only once it leads. *)
let setup_once spec ~dir ~traced =
  let t0 = now () in
  let svc = create_cluster spec ~dir ~traced in
  Service.start svc;
  if spec.mode = Service.Read_index then
    wait_for "the first lease" (fun () -> Service.holds_lease svc ~node:0 ~group:0);
  let acked = Atomic.make false in
  let submit () =
    Service.submit svc ~node:0 ~session:setup_session ~seq:1
      ~cmd:(Kv.incr_cmd ~key:"setup") (fun _ _ -> Atomic.set acked true)
  in
  submit ();
  let resend = ref (now () +. attempt_s) in
  wait_for "the first ack" (fun () ->
      if now () > !resend then begin
        resend := now () +. attempt_s;
        submit ()
      end;
      Atomic.get acked);
  (svc, now () -. t0)

(* ---- statistics ------------------------------------------------------ *)

let sorted l = let a = Array.of_list l in Array.sort compare a; a

(* Linear interpolation between closest ranks. *)
let pct a p =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let x = p /. 100. *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median l = pct (sorted l) 50.

(* Mean without the highest and lowest tenth. Set-up times are bimodal
   (about 1.5 ms or 5.5 ms in broadcast mode: one journal commit more or
   less), and the share of each mode drifts with the host; the median
   jumps between the modes where this follows the share. *)
let trimmed_mean l =
  let a = sorted l in
  let k = Array.length a / 10 in
  let mid = Array.sub a k (Array.length a - (2 * k)) in
  Array.fold_left ( +. ) 0. mid /. float (Array.length mid)

let mean l = match l with [] -> 0. | _ -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
let ratio a b = if b = 0. then 0. else a /. b

(* ---- one phase: set up, drive, drain, check -------------------------- *)

(* Stolen and total jiffies of the [cpu<N>] line of /proc/stat (the
   aggregate [cpu] line without a CPU): user nice system idle iowait irq
   softirq steal. Host steal is what moved this benchmark's figures most
   from run to run, so each run reports it. (0, 0) where unavailable. *)
let steal_of cpu =
  let name = match cpu with Some c -> "cpu" ^ string_of_int c | None -> "cpu" in
  match open_in "/proc/stat" with
  | exception Sys_error _ -> (0, 0)
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec find () =
      match String.split_on_char ' ' (input_line ic) |> List.filter (( <> ) "") with
      | n :: vals when n = name -> (
        match List.filteri (fun i _ -> i < 8) (List.filter_map int_of_string_opt vals) with
        | [ _; _; _; _; _; _; _; st ] as v -> (st, List.fold_left ( + ) 0 v)
        | _ -> (0, 0))
      | _ -> find ()
    in
    (try find () with End_of_file -> (0, 0))

type phase = {
  setup_times : float list;
  g : Gen.t;
  w0 : float;
  w1 : float;
  cpu_s : float;
  steal_frac : float;  (* share of the pinned CPU's time the host stole *)
  minor_words : float;
  major_gcs : int;
  delta : Win.delta;
  retries : int;
  not_ready : int;
  ri_calls : int;
  ri_spans : float list;
  late : float list;
  edges : float array;  (* bucket boundaries, [w0] to [w1] *)
  cpu_at : float array;  (* process CPU seconds at each boundary *)
  steal_at : (int * int) array;  (* [steal_of] the pinned CPU at each boundary *)
  failover : float option;
  catchup : float option;
  recover_call : float option;
  errors : string list;
  doctor : Doctor.report option;
}

(* The elements prepended to a list between two snapshots of it. *)
let added ~before ~after =
  let k = List.length after - List.length before in
  List.filteri (fun i _ -> i < k) after

let converge svc =
  let digests () = List.init n_nodes (fun i -> Service.digest svc ~node:i) in
  let same () =
    match digests () with d :: rest -> List.for_all (String.equal d) rest | [] -> true
  in
  let deadline = now () +. 20. in
  let rec go () =
    if now () > deadline then false
    else if same () then begin
      let d0 = digests () in
      Thread.delay 0.3;
      if same () && digests () = d0 then true else go ()
    end
    else (Thread.delay 0.05; go ())
  in
  go ()

let check_sessions svc (g : Gen.t) =
  let errs = ref [] in
  Array.iter
    (fun (s : Gen.sess) ->
      for node = 0 to n_nodes - 1 do
        let v =
          Option.value ~default:0
            (int_of_string_opt (Service.value svc ~node ~key:(Gen.key_name s.id)))
        in
        if v < s.w_acked then
          errs :=
            Printf.sprintf "node %d session %d: counter %d below %d acked writes (lost acked write)"
              node s.id v s.w_acked
            :: !errs;
        if v > s.w_issued then
          errs :=
            Printf.sprintf "node %d session %d: counter %d above %d issued writes (duplicate apply)"
              node s.id v s.w_issued
            :: !errs
      done)
    g.sessions;
  List.rev !errs

(* The consensus leader is the Ω output: the up process with the
   smallest (incarnation, id). *)
let leader_of rt boots =
  let best = ref (-1) in
  for i = 0 to n_nodes - 1 do
    if Runtime.is_up rt i
       && (!best < 0 || compare (boots.(i), i) (boots.(!best), !best) < 0)
    then best := i
  done;
  !best

type crash_ctl = {
  mutable c_recover_call : float option;
  mutable c_catchup : float option;
  mutable c_error : string option;
}

(* The crash schedule runs beside the generator so that the blocking
   [Runtime.crash]/[Runtime.recover] calls never delay arrivals. *)
let crash_controller svc (g : Gen.t) win ~w0 ~catchup_deadline ctl =
  let rt = Service.runtime svc in
  let boots = Array.make n_nodes 0 in
  let sleep_until t = let d = t -. now () in if d > 0. then Thread.delay d in
  sleep_until (w0 +. crash_after_s);
  let victim = leader_of rt boots in
  Win.close_node win rt victim;
  let t_crash = now () in
  Runtime.crash rt victim;
  Gen.with_lock g (fun () ->
      g.crash_start <- t_crash;
      g.crash_done <- now ());
  log "[leader_crash] crashed leader node %d" victim;
  sleep_until (t_crash +. outage_s);
  let target =
    List.fold_left max 0
      (List.filter_map
         (fun i -> if i <> victim then Some (Service.applied svc ~node:i) else None)
         (List.init n_nodes Fun.id))
  in
  let t_rec = now () in
  Runtime.recover rt victim;
  ctl.c_recover_call <- Some (now () -. t_rec);
  boots.(victim) <- boots.(victim) + 1;
  log "[leader_crash] recovered node %d; survivors had applied %d" victim target;
  let rec poll () =
    if Service.applied svc ~node:victim >= target then
      ctl.c_catchup <- Some (now () -. t_rec)
    else if now () > catchup_deadline () then
      ctl.c_error <-
        Some
          (Printf.sprintf "node %d never caught up: applied %d of %d" victim
             (Service.applied svc ~node:victim) target)
    else (Thread.delay 0.001; poll ())
  in
  poll ()

(* The longest stretch of [w0, w1] in which no request completed, and
   where it began. Retries and failover keep a healthy cluster far below
   [cap_s]; a stretch that long is a liveness failure, not a slow run. *)
let longest_stall (g : Gen.t) ~w0 ~w1 =
  let dones =
    List.filter_map
      (fun (s : Gen.sample) -> if s.s_ok && s.s_done > w0 && s.s_done < w1 then Some s.s_done else None)
      g.samples
  in
  let a = sorted (w0 :: w1 :: dones) in
  let best = ref (0., w0) in
  for i = 1 to Array.length a - 1 do
    if a.(i) -. a.(i - 1) > fst !best then best := (a.(i) -. a.(i - 1), a.(i - 1))
  done;
  !best

let run_phase spec ~seed ~seconds ~dir ~traced ~cpu =
  Unix.mkdir dir 0o755;
  let setup_times = ref [] in
  let svc = ref None in
  for k = 1 to setups do
    (* Write back what the previous set-up (or run) left dirty first:
       without it, set-ups took about 2.5 ms or 6 ms (one more journal
       commit), and the share of slow ones swung from run to run. *)
    ignore (Sys.command "sync");
    let d = Filename.concat dir (Printf.sprintf "cluster%d" k) in
    let s, dt = setup_once spec ~dir:d ~traced in
    setup_times := dt :: !setup_times;
    if k < setups then begin
      Service.shutdown s;
      rm_rf d
    end
    else svc := Some s
  done;
  log "[%s] set-ups (ms): %s" spec.name
    (String.concat " " (List.map (fun t -> Printf.sprintf "%.1f" (1e3 *. t)) (List.rev !setup_times)));
  let cluster_dir = Filename.concat dir (Printf.sprintf "cluster%d" setups) in
  let svc = Option.get !svc in
  let stopped = ref false in
  let stop () = if not !stopped then (stopped := true; Service.shutdown svc) in
  Fun.protect ~finally:stop @@ fun () ->
  let rt = Service.runtime svc in
  let g =
    Gen.create svc
      {
        Gen.writers = spec.writers;
        readers = spec.readers;
        pool = spec.pool;
        rate = spec.rate;
        read_pct = spec.read_pct;
        attempt_s;
        cap_s;
        seed;
      }
  in
  let history =
    if traced then Some (History.create ~path:(Filename.concat cluster_dir "client.history"))
    else None
  in
  g.history <- history;
  let t_start = now () in
  let w0 = t_start +. warmup_s in
  let w1 = w0 +. seconds in
  Gen.start g ~arrivals_until:w1;
  Gen.drive g ~until:w0;
  let snap () =
    Gen.with_lock g (fun () -> (g.retries, g.not_ready, g.ri_calls, g.ri_spans, g.late))
  in
  let win = Win.start rt in
  let r0, nr0, rc0, sp0, late0 = snap () in
  let cpu0 = Unix.times () and mw0 = Gc.minor_words () and gc0 = (Gc.quick_stat ()).major_collections in
  let ctl = { c_recover_call = None; c_catchup = None; c_error = None } in
  let drained_at = ref infinity in
  let ctl_thread =
    if spec.crash then
      Some
        (Thread.create
           (fun () ->
             try
               crash_controller svc g win ~w0 ctl
                 ~catchup_deadline:(fun () -> min (w1 +. 60.) (!drained_at +. 20.))
             with e -> ctl.c_error <- Some (Printexc.to_string e))
           ())
    else None
  in
  let proc_cpu () = let t = Unix.times () in t.Unix.tms_utime +. t.Unix.tms_stime in
  let nb = max 1 (int_of_float (Float.round (seconds /. bucket_s))) in
  let edges = Array.init (nb + 1) (fun b -> if b = nb then w1 else w0 +. (seconds *. float b /. float nb)) in
  let cpu_at = Array.make (nb + 1) (proc_cpu ()) in
  let steal_at = Array.make (nb + 1) (steal_of cpu) in
  for b = 1 to nb do
    Gen.drive g ~until:edges.(b);
    cpu_at.(b) <- proc_cpu ();
    steal_at.(b) <- steal_of cpu
  done;
  let steal0 = steal_at.(0) and steal1 = steal_at.(nb) in
  let cpu1 = Unix.times () and mw1 = Gc.minor_words () and gc1 = (Gc.quick_stat ()).major_collections in
  let r1, nr1, rc1, sp1, late1 = snap () in
  let mark what = log "[%s] %s %.2f s after the window" spec.name what (now () -. w1) in
  Gen.drain g;
  drained_at := now ();
  mark "drained";
  Option.iter Thread.join ctl_thread;
  let delta = Win.finish win rt in
  Service.stop_maintenance svc;
  let errors = ref (Option.to_list ctl.c_error) in
  if not (converge svc) then errors := "replicas did not converge within 20 s" :: !errors
  else errors := !errors @ check_sessions svc g;
  mark "converged and checked";
  if g.gaps > 0 then errors := Printf.sprintf "%d requests answered Gap" g.gaps :: !errors;
  (match longest_stall g ~w0 ~w1 with
  | gap, at when gap >= cap_s ->
    errors :=
      Printf.sprintf
        "the cluster stalled: no request completed for %.1f s from %.1f s into the window (%d undecodable datagrams)"
        gap (at -. w0) (Win.counter delta "udp_rx_undecodable")
      :: !errors
  | _ -> ());
  Option.iter History.close history;
  let doctor =
    if traced then begin
      stop ();
      let t0 = now () in
      match Doctor.analyze ~max_traces ~audit:true ~dir:cluster_dir () with
      | Ok r ->
        log "doctor: %d events (%d overwritten), %d traces (%d complete), %d recoveries, audit of %d client ops, %.1fs"
          r.events r.dropped (List.length r.traces) (Doctor.reconstructed r) (List.length r.recoveries)
          (match r.audit with Some a -> a.au_events | None -> 0) (now () -. t0);
        if Doctor.has_anomalies r then
          errors :=
            List.map (fun (a : Doctor.anomaly) -> "doctor: " ^ a.code ^ ": " ^ a.detail) r.anomalies
            @ !errors;
        Some r
      | Error e ->
        errors := ("doctor: " ^ e) :: !errors;
        None
    end
    else None
  in
  let cpu (t : Unix.process_times) = t.tms_utime +. t.tms_stime in
  {
    setup_times = !setup_times;
    g;
    w0;
    w1;
    cpu_s = cpu cpu1 -. cpu cpu0;
    steal_frac = ratio (float (fst steal1 - fst steal0)) (float (snd steal1 - snd steal0));
    minor_words = mw1 -. mw0;
    major_gcs = gc1 - gc0;
    delta;
    retries = r1 - r0;
    not_ready = nr1 - nr0;
    ri_calls = rc1 - rc0;
    ri_spans = added ~before:sp0 ~after:sp1;
    late = added ~before:late0 ~after:late1;
    edges;
    cpu_at;
    steal_at;
    failover = g.failover;
    catchup = ctl.c_catchup;
    recover_call = ctl.c_recover_call;
    errors = !errors;
    doctor;
  }

type bucket = {
  b_writes : float array;  (* sorted latencies of the bucket's due requests *)
  b_reads : float array;
  b_done : int;  (* requests completed inside the bucket *)
  b_cpu : float;  (* process CPU seconds spent inside the bucket *)
  b_steal : float;  (* share of the pinned CPU's time the host stole *)
}

type window = {
  measured : Gen.sample list;  (* due inside the window *)
  attempted : int;
  completed : int;
  failed : int;
  writes : float array;  (* latency from due, seconds; failed at the cap *)
  reads : float array;
  buckets : bucket array;
}

let window_of (p : phase) =
  let measured = List.filter (fun (s : Gen.sample) -> s.s_due >= p.w0 && s.s_due < p.w1) p.g.samples in
  let lat kind =
    sorted
      (List.filter_map
         (fun (s : Gen.sample) -> if s.s_kind = kind then Some (s.s_done -. s.s_due) else None)
         measured)
  in
  let completed = List.length (List.filter (fun (s : Gen.sample) -> s.s_ok) measured) in
  let nb = Array.length p.edges - 1 in
  let bucket_of t =
    let rec go b = if b >= nb - 1 || t < p.edges.(b + 1) then b else go (b + 1) in
    go 0
  in
  let b_lat = Array.init nb (fun _ -> ([], [])) and b_done = Array.make nb 0 in
  List.iter
    (fun (s : Gen.sample) ->
      let b = bucket_of s.s_due in
      let w, r = b_lat.(b) in
      let x = s.s_done -. s.s_due in
      b_lat.(b) <- (if s.s_kind = Gen.Write then (x :: w, r) else (w, x :: r)))
    measured;
  List.iter
    (fun (s : Gen.sample) ->
      if s.s_ok && s.s_done >= p.w0 && s.s_done < p.w1 then begin
        let b = bucket_of s.s_done in
        b_done.(b) <- b_done.(b) + 1
      end)
    p.g.samples;
  let buckets =
    Array.init nb (fun b ->
        let w, r = b_lat.(b) in
        { b_writes = sorted w; b_reads = sorted r; b_done = b_done.(b);
          b_cpu = p.cpu_at.(b + 1) -. p.cpu_at.(b);
          b_steal =
            (let (s0, t0), (s1, t1) = (p.steal_at.(b), p.steal_at.(b + 1)) in
             ratio (float (s1 - s0)) (float (t1 - t0))) })
  in
  (* the drain leaves no request unanswered: each one due in the window
     has completed, or failed by shedding or expiry *)
  let attempted = List.length measured in
  {
    measured;
    attempted;
    completed;
    failed = attempted - completed;
    writes = lat Gen.Write;
    reads = lat Gen.Read;
    buckets;
  }

(* Median over [buckets] of a per-bucket figure; buckets with fewer
   than [min_bucket_samples] samples are left out, and the pooled
   figure stands in when every bucket is that thin. *)
let bucket_median buckets ~samples ~figure ~pooled =
  match
    List.filter_map
      (fun b -> if samples b >= min_bucket_samples then Some (figure b) else None)
      buckets
  with
  | [] -> pooled
  | l -> median l

(* The buckets in which the host stole no more of the pinned CPU than in
   the median bucket: at least half of them, all of them where steal is
   not reported. Latency at light load follows steal closely (about
   +0.35 ms of write p50 per 10% steal on read_lease), and steal comes
   in episodes, so this leaves out the host rather than the program. *)
let quiet_buckets (w : window) =
  let limit = median (Array.to_list (Array.map (fun b -> b.b_steal) w.buckets)) in
  List.filter (fun b -> b.b_steal <= limit) (Array.to_list w.buckets)

let write_p50 w =
  bucket_median (quiet_buckets w) ~samples:(fun b -> Array.length b.b_writes)
    ~figure:(fun b -> pct b.b_writes 50.) ~pooled:(pct w.writes 50.)

let read_p50 w =
  bucket_median (quiet_buckets w) ~samples:(fun b -> Array.length b.b_reads)
    ~figure:(fun b -> pct b.b_reads 50.) ~pooled:(pct w.reads 50.)

let cpu_per_op (p : phase) w =
  bucket_median (Array.to_list w.buckets) ~samples:(fun b -> b.b_done)
    ~figure:(fun b -> b.b_cpu /. float b.b_done) ~pooled:(ratio p.cpu_s (float_of_int w.completed))

(* ---- reporting ------------------------------------------------------- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let m m_name m_unit m_value = { m_name; m_value = (if Float.is_finite m_value then m_value else 0.); m_unit }

let json_of ~correct ~attempted ~failed metrics =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {" correct
       (max 1 attempted) failed);
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" x.m_name x.m_value x.m_unit))
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

let end_to_end (p : phase) (w : window) =
  [
    m "setup_s" "s" (trimmed_mean p.setup_times);
    m "write_p50_ms" "ms" (1e3 *. write_p50 w);
    m "read_p50_us" "us" (1e6 *. read_p50 w);
  ]

let stage (r : Doctor.report) prefix =
  List.find_opt
    (fun (s : Doctor.stage_stat) ->
      String.length s.stage >= String.length prefix
      && String.sub s.stage 0 (String.length prefix) = prefix)
    r.stages

let stage_mean r prefix = match stage r prefix with Some s -> s.mean_us | None -> 0.

(* Telescoped server-side rows of every fully reconstructed write trace:
   submit->bcast->propose->decide->apply->ack. *)
let trace_rows (r : Doctor.report) =
  List.filter_map
    (fun (t : Doctor.trace_info) ->
      match (t.submit_time, t.bcast_time, List.rev t.proposes, t.decide_time, t.applies, t.ack_time) with
      | Some s, Some b, (_, p) :: _, Some d, (_ :: _ as aps), Some a ->
        let ap = List.fold_left (fun m (_, ta, _) -> min m ta) max_int aps in
        if s <= b && b <= p && p <= d && d <= ap && ap <= a then
          Some (float (b - s), float (p - b), float (d - p), float (ap - d), float (a - ap))
        else None
      | _ -> None)
    r.traces

(* Layer metrics read from the program's counters and histograms and
   from the generator's own spans, over the measured window. *)
let layer_metrics spec (p : phase) (w : window) =
  let d = p.delta in
  let ops = float_of_int (max 1 w.completed) in
  let c k = float_of_int (Win.counter d k) in
  let secs = p.w1 -. p.w0 in
  let ms x = x /. 1e3 in
  let reads_ri = spec.mode = Service.Read_index in
  let absent = ref [] in
  (* a metric that does not apply reads 0, with the reason on record *)
  let only cond reason x =
    if cond then x
    else begin
      absent := (x.m_name, reason) :: !absent;
      { x with m_value = 0. }
    end
  in
  let ri = only reads_ri "no read-index reads on this workload"
  and cr = only spec.crash "no crash on this workload"
  and ol = only (spec.rate > 0.) "no open-loop arrivals on this workload" in
  let metrics =
    [
      (* generator and request accounting *)
      m "service.ops_s" "1/s" (float_of_int w.completed /. (p.w1 -. p.w0));
      m "service.fail_frac" "ratio" (ratio (float w.failed) (float (max 1 w.attempted)));
      m "service.write_p99_ms" "ms" (1e3 *. pct w.writes 99.);
      m "service.write_n" "count" (float (Array.length w.writes));
      m "service.read_p99_us" "us" (1e6 *. pct w.reads 99.);
      m "service.read_n" "count" (float (Array.length w.reads));
      ol (m "gen.late_p99_ms" "ms" (1e3 *. pct (sorted p.late) 99.));
      m "gen.late_n" "count" (float (List.length p.late));
      m "service.retries_per_op" "1/op" (float p.retries /. ops);
      ri (m "service.not_ready_frac" "ratio" (ratio (float p.not_ready) (float p.ri_calls)));
      ri (m "service.read_index_call_us" "us" (1e6 *. median p.ri_spans));
      m "service.read_index_call_n" "count" (float (List.length p.ri_spans));
      (* live runtime: sockets and codec *)
      m "live.datagrams_per_op" "1/op" (c "udp_tx_datagrams" /. ops);
      m "live.frames_per_datagram" "ratio" (ratio (c "udp_tx_frames") (c "udp_tx_datagrams"));
      m "live.tx_oversize" "count" (c "udp_tx_oversize");
      m "live.rx_undecodable" "count" (c "udp_rx_undecodable");
      (* dissemination and state transfer *)
      m "protocol.gossip_bytes_per_op" "B/op" (c "gossip_bytes_sent" /. ops);
      m "protocol.rx_ring_per_op" "1/op" (c "rx.ring" /. ops);
      m "protocol.rx_need_per_op" "1/op" (c "rx.need" /. ops);
      m "protocol.gap_skips" "count" (c "ab_gap_skips");
      m "protocol.b2p_p50_ms" "ms" (ms (Win.percentile d "stage_broadcast_to_propose_us" 50.));
      m "protocol.b2p_n" "count" (float (Win.count d "stage_broadcast_to_propose_us"));
      m "protocol.state_sent_per_kop" "1/kop" (1e3 *. c "state_sent" /. ops);
      m "protocol.state_bytes_per_op" "B/op" (c "state_bytes_sent" /. ops);
      (* consensus *)
      m "consensus.decide_p50_ms" "ms" (ms (Win.percentile d "cons_propose_to_decide_us" 50.));
      m "consensus.decide_p99_ms" "ms" (ms (Win.percentile d "cons_propose_to_decide_us" 99.));
      m "consensus.decide_n" "count" (float (Win.count d "cons_propose_to_decide_us"));
      m "consensus.ballots_per_instance" "ratio" (Win.mean d "cons_ballots");
      m "consensus.ops_per_instance" "ratio"
        (ratio (c "ab_delivered") (float (Win.count d "cons_instance_us")));
      (* failure detection *)
      m "fd.rx_per_s" "1/s" (c "rx.fd" /. secs);
      (* stable storage *)
      m "store.appends_per_op" "1/op" (c "wal_appends" /. ops);
      m "store.fsyncs_per_op" "1/op" (c "wal_fsyncs" /. ops);
      m "store.log_bytes_per_op" "B/op" (float (Win.counter_prefix d "log_bytes.") /. ops);
      m "store.append_p99_us" "us" (Win.percentile d "wal_append_us" 99.);
      m "store.append_n" "count" (float (Win.count d "wal_append_us"));
      m "store.fsync_p50_ms" "ms" (ms (Win.percentile d "wal_fsync_us" 50.));
      m "store.fsync_p99_ms" "ms" (ms (Win.percentile d "wal_fsync_us" 99.));
      m "store.fsync_n" "count" (float (Win.count d "wal_fsync_us"));
      (* recovery (leader_crash) *)
      cr (m "store.recover_ms" "ms" (ms (Win.mean d "wal_recover_us")));
      cr (m "recovery.replay_records" "count" (c "recovery_replay_records"));
      cr (m "recovery.replay_ms" "ms" (ms (c "recovery_replay_us")));
      cr (m "recovery.recover_call_ms" "ms" (1e3 *. Option.value ~default:0. p.recover_call));
      cr (m "recovery.failover_ms" "ms" (1e3 *. Option.value ~default:0. p.failover));
      cr (m "recovery.catchup_s" "s" (Option.value ~default:0. p.catchup));
      (* process and host *)
      m "proc.cpu_us_per_op" "us" (1e6 *. cpu_per_op p w);
      m "host.steal_frac" "ratio" p.steal_frac;
      m "proc.minor_words_per_op" "words/op" (p.minor_words /. ops);
      m "proc.major_gcs" "count" (float p.major_gcs);
    ]
  in
  (metrics, List.rev !absent)

(* Stage rows of the traced run, from [Doctor.analyze] over its flight
   dumps, and the comparison of its latency with the untraced run. *)
let traced_metrics spec (w : window) (tp : phase) (tw : window) =
  let ms x = x /. 1e3 in
  let mean_write (w : window) = mean (Array.to_list w.writes) in
  let sent_lat (w : window) =
    mean
      (List.filter_map
         (fun (s : Gen.sample) ->
           if s.s_kind = Gen.Write && s.s_ok then Some (s.s_done -. s.s_sent) else None)
         w.measured)
  in
  let doc = match tp.doctor with Some r -> r | None -> failwith "traced phase lacks a doctor report" in
  let rows = trace_rows doc in
  let row f = 1e-3 *. mean (List.map f rows) in
  let covered_us = mean (List.map (fun (a, b, c, d, e) -> a +. b +. c +. d +. e) rows) in
  let caught =
    List.filter_map
      (fun (rv : Doctor.recovery) ->
        if rv.rv_boot > 0 && rv.rv_caught_len >= 0 then Some (float rv.rv_caught_us) else None)
      doc.recoveries
  in
  let caught_ms = if spec.crash && caught <> [] then ms (median caught) else 0. in
  ( [
      m "recovery.caught_up_ms" "ms" caught_ms;
      m "service.submit_to_bcast_us" "us" (stage_mean doc "submit->bcast");
      m "protocol.bcast_to_rx_ms" "ms" (ms (stage_mean doc "bcast->rx"));
      m "protocol.bcast_to_propose_ms" "ms" (row (fun (_, b, _, _, _) -> b));
      m "consensus.propose_to_decide_ms" "ms" (ms (stage_mean doc "propose->decide"));
      m "apply.decide_to_apply_ms" "ms" (ms (stage_mean doc "decide->apply"));
      m "service.apply_to_ack_us" "us" (stage_mean doc "apply->ack");
      m "store.trace_append_us" "us" (stage_mean doc "wal append");
      m "store.trace_fsync_ms" "ms" (ms (stage_mean doc "wal fsync"));
      m "trace.complete_traces" "count" (float (List.length rows));
      m "trace.overwritten_events" "count" (float doc.dropped);
      m "trace.unaccounted_frac" "ratio" (1. -. ratio (covered_us /. 1e6) (sent_lat tw));
      m "trace.overhead_frac" "ratio" (ratio (mean_write tw) (mean_write w) -. 1.);
    ],
    if spec.crash then [] else [ ("recovery.caught_up_ms", "no crash on this workload") ] )

(* ---- main ------------------------------------------------------------ *)

let usage () =
  prerr_endline "usage: livebench --workload NAME --seed N --seconds S --trace 0|1 --dir DIR [--cpu C]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = parse [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let spec =
    match List.find_opt (fun s -> s.name = get "workload") specs with
    | Some s -> s
    | None ->
      prerr_endline ("unknown workload " ^ get "workload");
      exit 2
  in
  let seed = int "seed" and seconds = float_of_int (int "seconds") and traced = int "trace" = 1 in
  let dir = get "dir" in
  if Sys.file_exists dir then rm_rf dir;
  Unix.mkdir dir 0o755;
  let finish code =
    rm_rf dir;
    exit code
  in
  try
    log "workload %s: seed %d, %gs window after %gs warm-up, %d set-ups, fsync %s, reads %s"
      spec.name seed seconds warmup_s setups (Durable.policy_to_string spec.fsync)
      (Service.read_mode_to_string spec.mode);
    let cpu = Option.map int_of_string (List.assoc_opt "cpu" kv) in
    let p = run_phase spec ~seed ~seconds ~dir:(Filename.concat dir "plain") ~traced:false ~cpu in
    let w = window_of p in
    (* the traced phase keeps a shorter window so that its flight rings
       hold the whole window, the crash and recovery included *)
    let tp =
      if traced then
        Some
          (run_phase spec ~seed ~seconds:(Float.min seconds traced_window_s)
             ~dir:(Filename.concat dir "traced") ~traced:true ~cpu)
      else None
    in
    let errors = p.errors @ (match tp with Some t -> t.errors | None -> []) in
    List.iter (fun e -> log "CHECK FAILED: %s" e) errors;
    let layers, absent = layer_metrics spec p w in
    let metrics, absent =
      match tp with
      | None ->
        List.iter (fun x -> log "  layer %-34s %14.4f %s" x.m_name x.m_value x.m_unit) layers;
        (end_to_end p w, [])
      | Some tp ->
        let traced, absent' = traced_metrics spec w tp (window_of tp) in
        (layers @ traced, absent @ absent')
    in
    Array.iteri
      (fun i b ->
        log "  bucket %2d: %5d writes p50 %8.3f ms, %6d reads p50 %9.1f us, %6d done, %7.1f us CPU/op, steal %.3f" i
          (Array.length b.b_writes) (1e3 *. pct b.b_writes 50.) (Array.length b.b_reads)
          (1e6 *. pct b.b_reads 50.) b.b_done (1e6 *. ratio b.b_cpu (float b.b_done)) b.b_steal)
      w.buckets;
    List.iter (fun x -> log "  %-34s %14.4f %s" x.m_name x.m_value x.m_unit) metrics;
    List.iter (fun (name, why) -> log "absent: %s (reported as 0): %s" name why) absent;
    log "window: %d attempted, %d completed, %d failed (%d shed, %d expired); %d writes, %d reads measured"
      w.attempted w.completed w.failed p.g.shed p.g.expired (Array.length w.writes) (Array.length w.reads);
    if errors <> [] then begin
      print_endline (json_of ~correct:false ~attempted:w.attempted ~failed:w.failed []);
      finish 1
    end;
    print_endline (json_of ~correct:true ~attempted:w.attempted ~failed:w.failed metrics);
    finish 0
  with e ->
    prerr_endline ("livebench: " ^ Printexc.to_string e);
    finish 1
