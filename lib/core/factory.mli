(** Builders of packaged protocol stacks.

    Each function closes a full configuration into a {!Proto.t} that the
    harness can instantiate per process. The [consensus] argument selects
    the black box ([`Paxos] default, [`Coord] for E8). *)

type consensus = [ `Paxos | `Coord ]

type app_factory = int -> Protocol.app * (Payload.t -> unit)
(** Per-process application hook builder, called at every (re)start of
    process [i] with a fresh application replica: returns the
    [A-checkpoint]/install hooks and the application's own deliver
    upcall (composed with the harness's instrumentation). *)

type group_app_factory =
  node:int -> group:int -> Protocol.app * (Payload.t -> unit)
(** Group-aware variant of {!app_factory}: under {!sharded} the factory
    runs once per (process, group) — the shard mux rebinds the engine io
    per inner group before stack creation, so each group's hooks
    checkpoint into that group's scoped storage keys and survive
    compaction independently. When both factories are given, the plain
    one's checkpoint rides first in a composite blob. *)

val basic :
  ?consensus:consensus ->
  ?gossip_period:int ->
  ?delta_gossip:bool ->
  ?gossip_full_every:int ->
  ?dissemination:[ `Gossip | `Ring ] ->
  ?max_batch_bytes:int ->
  ?need_cap:int ->
  ?trace_sample:int ->
  ?audit_every:int ->
  unit ->
  Proto.t
(** The basic protocol (Fig. 2). [delta_gossip] (default true) gossips
    digests and pulls missing entries; [false] multisends the full
    [Unordered] set every period, as the paper's pseudocode reads.
    [dissemination:`Ring] forwards payload batches around the successor
    ring instead of relying on gossip pulls (the stack name gains a
    ["+ring"] suffix); [max_batch_bytes] bounds one proposal's payload
    bytes. [trace_sample] (default 0 = off) samples every k-th broadcast
    with a causal {!Trace_ctx} id carried on the wire. [audit_every]
    (default 1; 0 = off) piggybacks an {!Audit.cert} order certificate
    on every k-th gossip/digest — the online order audit. *)

val alternative :
  ?consensus:consensus ->
  ?gossip_period:int ->
  ?checkpoint_period:int ->
  ?delta:int ->
  ?early_return:bool ->
  ?incremental:bool ->
  ?paranoid_log:bool ->
  ?window:int ->
  ?trim_state:bool ->
  ?delta_gossip:bool ->
  ?gossip_full_every:int ->
  ?dissemination:[ `Gossip | `Ring ] ->
  ?max_batch_bytes:int ->
  ?need_cap:int ->
  ?trace_sample:int ->
  ?audit_every:int ->
  ?fault_reorder_node:int ->
  ?app_factory:app_factory ->
  ?group_app_factory:group_app_factory ->
  unit ->
  Proto.t
(** The alternative protocol (Figs. 3–5); defaults as in
    {!Protocol.Make.Alternative.create}. [window > 1] pipelines that many
    consensus instances; [dissemination:`Ring] adds successor-ring
    payload forwarding. [need_cap] (default 128) bounds how many missing
    payload ids one digest exchange will pull. [trace_sample] (default 0
    = off) samples every k-th broadcast with a causal {!Trace_ctx} id
    carried on the wire and stamped into the flight recorder at every
    hop. [audit_every] (default 1; 0 = off) controls the order-certificate
    cadence as in {!basic}. [fault_reorder_node] (tests only) arms the
    one-shot apply-reorder fault injection on exactly that process id, so
    a run can break total order on one node and watch the audit sentinel
    catch it. *)

val throughput :
  ?consensus:consensus ->
  ?window:int ->
  ?max_batch_bytes:int ->
  ?repair_period:int ->
  ?repair_full_every:int ->
  ?need_cap:int ->
  ?trace_sample:int ->
  ?audit_every:int ->
  ?fault_reorder_node:int ->
  ?group_app_factory:group_app_factory ->
  unit ->
  Proto.t
(** The throughput-tuned preset behind E18 and the live smoke: the
    alternative protocol with ring dissemination, a pipelined window
    (default 4), adaptive batching at [max_batch_bytes] (default 24_000)
    and a rarer full-gossip belt — the ring carries the payloads, the
    digests only repair. The repair path is tunable per shard:
    [repair_period] (default 10_000 µs) is the digest gossip cadence,
    [repair_full_every] (default 32) sends a full digest every that many
    ticks, and [need_cap] (default 128) caps ids pulled per exchange.
    [trace_sample]/[audit_every]/[fault_reorder_node] as in
    {!alternative}. *)

val naive : ?consensus:consensus -> unit -> Proto.t
(** The naive-logging strawman for ablations E1/E6: alternative protocol
    with a checkpoint after {e every} round and full (non-incremental)
    [Unordered] re-logging on every broadcast. *)

val sharded : ?route:(string -> int) -> shards:int -> Proto.t -> Proto.t
(** [sharded ~shards stack] multiplexes [shards] independent instances
    of a single-group [stack] on every process — one consensus pipeline,
    gossip/ring task and [Unordered]/[Agreed] state per group, behind
    one wire type tagged with a uvarint group id (see {!Shard.mux}).
    Storage is scoped to group-tagged keys in the shared store/WAL and
    every metrics series gains a ["g<g>/"] label. [route] maps payload
    data to a group for plain {!Proto.S.broadcast} (default: data hash);
    [Proto.S.broadcast_to] pins the group explicitly. [shards = 1]
    returns [stack] unchanged — names, keys and series stay exactly as
    before. *)
