(* The benchmark's load generator, built on the public service API only.

   Two sources of requests share one set of client sessions:

   - closed-loop sessions: each keeps exactly one request outstanding
     and submits the next one from the completion callback, in the node
     thread that answered it. A writer increments its own key; a reader
     issues linearizable [Get]s of writers' keys, drawn from its own
     seeded stream;
   - an open-loop arrival stream at a fixed rate (Poisson gaps drawn
     from the seed), served by a pool of idle sessions from the main
     thread. An arrival that finds no idle session is shed.

   Every request is timed from its due time: the submit time for a
   closed-loop request, the scheduled arrival for an open-loop one, so a
   stall is charged to every request it delays. An attempt that is not
   answered within [attempt_s], or whose node went down, is resubmitted
   elsewhere with the same (session, seq), which the session table
   deduplicates. A request still unanswered [cap_s] after it was due is
   expired and counts as failed; failed requests enter the latency
   percentiles at [cap_s].

   One generator lock guards everything mutable here; completion
   callbacks take it briefly. Lock order: generator lock, then the
   service's own locks (inside [Service.submit]). *)

module Service = Abcast_service.Service
module Runtime = Abcast_live.Runtime
module Kv = Abcast_apps.Kv
module Envelope = Abcast_core.Envelope
module History = Abcast_sim.History

type kind = Write | Read

type role = Writer | Reader of Random.State.t | Pool

type sess = {
  id : int;
  home : int;
  role : role;
  mutable seq : int;
  mutable cur : req option;
  mutable w_issued : int;
  mutable w_acked : int;
}

and req = {
  sess : sess;
  kind : kind;
  key : int;  (* id of the session owning the key *)
  rseq : int;  (* session seq; 0 for a read-index read *)
  due : float;
  mutable sent : float;  (* first submit *)
  mutable attempt_at : float;
  mutable target : int;
  mutable finished : bool;
}

type sample = { s_kind : kind; s_due : float; s_sent : float; s_done : float; s_ok : bool }

type cfg = {
  writers : int;  (* closed-loop writer sessions *)
  readers : int;  (* closed-loop reader sessions *)
  pool : int;  (* open-loop sessions *)
  rate : float;  (* open-loop arrivals per second *)
  read_pct : int;  (* share of open-loop arrivals that are reads *)
  attempt_s : float;
  cap_s : float;
  seed : int;
}

type t = {
  svc : Service.t;
  cfg : cfg;
  mode : Service.read_mode;
  n : int;
  lm : Mutex.t;
  sessions : sess array;  (* writers, then the pool *)
  free : sess Queue.t;  (* idle pool sessions *)
  rng : Random.State.t;
  mutable running : bool;  (* closed-loop sessions keep issuing *)
  mutable arrivals_until : float;
  mutable next_due : float;
  mutable samples : sample list;
  mutable shed : int;
  mutable expired : int;
  mutable retries : int;
  mutable gaps : int;  (* requests answered with [Gap]: a dedup fault *)
  mutable ri_calls : int;
  mutable not_ready : int;
  mutable ri_spans : float list;  (* seconds inside [Service.read_index] *)
  mutable late : float list;  (* open-loop issue time minus due time *)
  mutable crash_done : float;  (* when the last crash returned; 0 = none *)
  mutable failover : float option;  (* crash start to first post-crash ack *)
  mutable crash_start : float;
  mutable history : History.t option;
}

let key_name = Abcast_service.Loadgen.client_key
let now () = Unix.gettimeofday ()

let int_value s = match int_of_string_opt s with Some v -> v | None -> -1

let create svc cfg =
  let n = Runtime.n (Service.runtime svc) in
  let sessions =
    Array.init (cfg.writers + cfg.readers + cfg.pool) (fun id ->
        {
          id;
          home = id mod n;
          role =
            (if id < cfg.writers then Writer
             else if id < cfg.writers + cfg.readers then
               Reader (Random.State.make [| cfg.seed; id |])
             else Pool);
          seq = 0;
          cur = None;
          w_issued = 0;
          w_acked = 0;
        })
  in
  let free = Queue.create () in
  Array.iter (fun s -> if s.role = Pool then Queue.push s free) sessions;
  {
    svc;
    cfg;
    mode = (Service.config svc).read_mode;
    n;
    lm = Mutex.create ();
    sessions;
    free;
    rng = Random.State.make [| cfg.seed |];
    running = false;
    arrivals_until = 0.;
    next_due = infinity;
    samples = [];
    shed = 0;
    expired = 0;
    retries = 0;
    gaps = 0;
    ri_calls = 0;
    not_ready = 0;
    ri_spans = [];
    late = [];
    crash_done = 0.;
    failover = None;
    crash_start = 0.;
    history = None;
  }

let rt g = Service.runtime g.svc

(* First up node at or after [from]; [from] itself when all are down
   (the submit is then a no-op and the retry deadline covers it). *)
let up_from g from =
  let rec go i =
    if i = g.n then from mod g.n
    else
      let c = (from + i) mod g.n in
      if Runtime.is_up (rt g) c then c else go (i + 1)
  in
  go 0

(* Read-index mode acks only at the leader in view, so everything goes
   to the claimant there. *)
let pick_target g (s : sess) ~from =
  match g.mode with
  | Service.Read_index -> Service.claimant g.svc
  | Service.Broadcast | Service.Stale -> up_from g (s.home + from)

let record_history g r ~done_t ~ok ~value =
  match g.history with
  | None -> ()
  | Some h ->
    History.record h
      {
        History.client = r.sess.id;
        kind = (match r.kind with Write -> History.kind_write | Read -> History.kind_lin);
        key = r.key;
        seq = r.rseq;
        t_inv = int_of_float (r.sent *. 1e6);
        t_resp = int_of_float (done_t *. 1e6);
        value;
        ok;
      }

(* g.lm held *)
let release g (s : sess) =
  s.cur <- None;
  if s.role = Pool then Queue.push s g.free

let finish g r ~ok ~value done_t =
  r.finished <- true;
  g.samples <-
    { s_kind = r.kind; s_due = r.due; s_sent = r.sent; s_done = done_t; s_ok = ok }
    :: g.samples;
  if ok then begin
    if r.kind = Write then r.sess.w_acked <- r.sess.w_acked + 1;
    record_history g r ~done_t ~ok ~value;
    if r.kind = Write && g.failover = None && g.crash_done > 0.
       && r.sent >= g.crash_done
    then g.failover <- Some (done_t -. g.crash_start)
  end;
  release g r.sess

let rec submit g r =
  let t = now () in
  r.attempt_at <- t;
  if r.sent = 0. then r.sent <- t;
  match (r.kind, g.mode) with
  | Read, Service.Read_index -> poll_read g r
  | _ ->
    let cmd =
      match r.kind with
      | Write -> Kv.incr_cmd ~key:(key_name r.sess.id)
      | Read -> Kv.get_cmd ~key:(key_name r.key)
    in
    Service.submit g.svc ~node:r.target ~session:r.sess.id ~seq:r.rseq ~cmd
      (fun status reply -> completion g r status reply)

(* A read-index read is a local call at the claimant: [Value] completes
   it, [Not_ready] leaves it pending for the next generator pass. *)
and poll_read g r =
  let t0 = now () in
  let res = Service.read_index g.svc ~node:r.target ~key:(key_name r.key) in
  let t1 = now () in
  g.ri_calls <- g.ri_calls + 1;
  g.ri_spans <- (t1 -. t0) :: g.ri_spans;
  match res with
  | Service.Value v -> finish g r ~ok:true ~value:(int_value v) t1
  | Service.Not_ready -> g.not_ready <- g.not_ready + 1

and completion g r status reply =
  Mutex.lock g.lm;
  (match r.sess.cur with
  | Some c when c == r && not r.finished ->
    let t = now () in
    let ok = status <> Envelope.Gap in
    if not ok then g.gaps <- g.gaps + 1;
    finish g r ~ok ~value:(int_value reply) t;
    if g.running then next g r.sess ~due:t
  | _ -> ());
  Mutex.unlock g.lm

(* g.lm held *)
and issue_write g s ~due =
  s.seq <- s.seq + 1;
  s.w_issued <- s.w_issued + 1;
  let r =
    {
      sess = s;
      kind = Write;
      key = s.id;
      rseq = s.seq;
      due;
      sent = 0.;
      attempt_at = 0.;
      target = pick_target g s ~from:0;
      finished = false;
    }
  in
  s.cur <- Some r;
  submit g r

(* g.lm held *)
and issue_read g s ~key ~due =
  let seq =
    match g.mode with
    | Service.Read_index -> 0
    | Service.Broadcast | Service.Stale ->
      s.seq <- s.seq + 1;
      s.seq
  in
  let r =
    {
      sess = s;
      kind = Read;
      key;
      rseq = seq;
      due;
      sent = 0.;
      attempt_at = 0.;
      target = pick_target g s ~from:0;
      finished = false;
    }
  in
  s.cur <- Some r;
  submit g r

(* g.lm held: a closed-loop session's next request *)
and next g s ~due =
  match s.role with
  | Writer -> issue_write g s ~due
  | Reader rng -> issue_read g s ~key:(Random.State.int rng (max 1 g.cfg.writers)) ~due
  | Pool -> ()

(* g.lm held: one open-loop arrival *)
let arrive g ~due =
  let is_read = Random.State.int g.rng 100 < g.cfg.read_pct in
  let key = Random.State.int g.rng (Array.length g.sessions) in
  match Queue.take_opt g.free with
  | None ->
    g.shed <- g.shed + 1;
    g.samples <-
      {
        s_kind = (if is_read then Read else Write);
        s_due = due;
        s_sent = due;
        s_done = due +. g.cfg.cap_s;
        s_ok = false;
      }
      :: g.samples
  | Some s ->
    g.late <- (now () -. due) :: g.late;
    if is_read then issue_read g s ~key ~due else issue_write g s ~due

let gap g = -.log (1. -. Random.State.float g.rng 1.) /. g.cfg.rate

(* g.lm held: retry, poll or expire every request in flight *)
let reap g t =
  Array.iter
    (fun s ->
      match s.cur with
      | Some r when not r.finished ->
        if t -. r.due > g.cfg.cap_s then begin
          g.expired <- g.expired + 1;
          if r.kind = Write || g.mode <> Service.Read_index then
            Service.abandon g.svc ~node:r.target ~session:s.id ~seq:r.rseq
              ~key:(key_name r.key);
          r.finished <- true;
          g.samples <-
            { s_kind = r.kind; s_due = r.due; s_sent = r.sent; s_done = r.due +. g.cfg.cap_s; s_ok = false }
            :: g.samples;
          release g s;
          if g.running then next g s ~due:t
        end
        else begin
          match (r.kind, g.mode) with
          | Read, Service.Read_index ->
            r.target <- Service.claimant g.svc;
            poll_read g r
          | _ ->
            let down = not (Runtime.is_up (rt g) r.target) in
            if down || t -. r.attempt_at > g.cfg.attempt_s then begin
              g.retries <- g.retries + 1;
              if not down then
                Service.abandon g.svc ~node:r.target ~session:s.id ~seq:r.rseq
                  ~key:(key_name r.key);
              r.target <- pick_target g s ~from:(r.target - s.home + 1);
              submit g r
            end
        end
      | _ -> ())
    g.sessions

let with_lock g f =
  Mutex.lock g.lm;
  Fun.protect ~finally:(fun () -> Mutex.unlock g.lm) f

(* Start the closed-loop sessions and schedule open-loop arrivals from now
   until [arrivals_until]. *)
let start g ~arrivals_until =
  with_lock g (fun () ->
      let t = now () in
      g.running <- true;
      g.arrivals_until <- arrivals_until;
      if g.cfg.rate > 0. then g.next_due <- t +. gap g;
      Array.iter (fun s -> next g s ~due:t) g.sessions)

(* One generator pass: issue every due arrival, then reap. *)
let pass g =
  with_lock g (fun () ->
      let t = now () in
      while g.next_due <= t && g.next_due < g.arrivals_until do
        arrive g ~due:g.next_due;
        g.next_due <- g.next_due +. gap g
      done;
      reap g t)

(* Drive the load from the calling thread until [until]. *)
let drive g ~until =
  let rec loop () =
    if now () < until then begin
      pass g;
      let d = min g.next_due (now () +. 0.001) -. now () in
      if d > 0. then Thread.delay d else Thread.yield ();
      loop ()
    end
  in
  loop ()

let in_flight g =
  with_lock g (fun () ->
      Array.exists (fun s -> match s.cur with Some r -> not r.finished | None -> false) g.sessions)

(* Stop issuing, then keep retrying until nothing is in flight (requests
   past their cap expire, so this ends within [cap_s]). *)
let drain g =
  with_lock g (fun () ->
      g.running <- false;
      g.arrivals_until <- 0.);
  while in_flight g do
    pass g;
    Thread.delay 0.002
  done
