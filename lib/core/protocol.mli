(** The paper's Atomic Broadcast protocols, as a functor over the
    Consensus building block.

    [Make (C)] instantiates the whole stack over one consensus
    implementation — the paper's central design point is that [C] is a
    black box ({!Abcast_consensus.Consensus_intf.S}); swapping
    {!Abcast_consensus.Paxos} for {!Abcast_consensus.Coord} changes
    nothing above this line (experiment E8).

    Two protocol variants are exposed:

    - {!Make.Basic} — Fig. 2: minimal logging. The only stable-storage
      write above consensus is… none: the proposal log is the consensus's
      own initial-value write (§4.3). Recovery replays every logged round.
    - {!Make.Alternative} — Figs. 3–5: periodic [(k, Agreed)] checkpoints
      (§5.1), application-level checkpoints with vector clocks bounding
      log size (§5.2), state transfer with tunable Δ (§5.3), early-return
      [A-broadcast] that logs the [Unordered] set for batching (§5.4), and
      incremental logging (§5.5).

    Both satisfy Validity, Integrity, Termination and Total Order (§2.2);
    the test suite checks these over adversarial crash/recovery
    schedules. *)

type app = { checkpoint : unit -> string; install : string -> unit }
(** Application hooks for application-level checkpointing (§5.2, Fig. 5).
    [checkpoint] is the [A-checkpoint] upcall returning the serialized
    application state; [install] resets the application to a received
    checkpoint (recovery and state transfer). Shared across all functor
    instantiations. *)

val encode_checkpoint : int * Agreed.repr -> string
(** Wire encoding of the stable [(k, Agreed)] checkpoint cell — the
    format every stack instance logs under ["ab/checkpoint"],
    independent of the consensus implementation. Exposed for harness
    code that inspects or fabricates checkpoints (Lemmas, tests). *)

val decode_checkpoint : string -> (int * Agreed.repr) option
(** Inverse of {!encode_checkpoint}; [None] on malformed bytes. *)

module Make (C : Abcast_consensus.Consensus_intf.S) : sig
  module M : module type of Abcast_consensus.Multi.Make (C)

  (** Wire messages of the whole stack: protocol gossip and state
      transfer, plus encapsulated consensus and failure-detector
      traffic. *)
  type msg =
    | Gossip of {
        k : int;
        len : int;
        unordered : Payload.t list;
        cert : Audit.cert option;
      }
        (** full-payload [gossip(k_p, Unordered_p)] multisend (§4.2); [len]
            is the sender's delivered-sequence length, letting a state-
            transfer donor ship only the missing suffix (§5.3). With
            digest gossip enabled this is the periodic full-set fallback
            and the reply to a {!Need} pull. [cert] optionally piggybacks
            the sender's order certificate (the online audit). *)
    | Digest of {
        k : int;
        len : int;
        summary : (int * int * int) list;
        cert : Audit.cert option;
      }
        (** compact gossip: [summary] lists, per [(origin, boot)] stream,
            the highest sequence number present in the sender's
            [Unordered] set. A receiver derives exactly the candidate
            entries it is missing and pulls them with {!Need} — see
            DESIGN.md for why the §4.2 liveness argument is preserved.
            [cert]: as in {!Gossip}. *)
    | Need of { ids : Payload.id list }
        (** pull request for specific unordered entries, answered with a
            payload {!Gossip} restricted to the ids the sender holds *)
    | State of { k : int; floor : int; agreed : Agreed.repr }
        (** state transfer for late processes (§5.3); [floor] is the
            sender's consensus truncation floor — a receiver below it must
            adopt the state regardless of Δ, because the consensus
            instances it is missing can no longer be re-run *)
    | Cons of M.msg  (** consensus instance traffic *)
    | Fd of Abcast_fd.Heartbeat.msg  (** failure-detector heartbeats *)
    | Ring of { k : int; len : int; entries : (int * Payload.t) list }
        (** ring dissemination: payload batch forwarded to the successor
            process; each entry carries its remaining hop count (the
            origin starts at [n-1], so a payload circles the ring at most
            once). [k]/[len] piggyback the same round/length hints as
            {!Gossip}. A torn ring (crashed successor) degrades to the
            digest/pull gossip underneath — see DESIGN.md "Dissemination
            topologies". *)

  val pp_msg : Format.formatter -> msg -> unit

  val write_msg : Abcast_util.Wire.writer -> msg -> unit
  (** Wire encoding of the whole stack's messages (one leading tag byte,
      then the constructor's fields — see DESIGN.md "Wire format"). *)

  val read_msg : Abcast_util.Wire.reader -> msg
  (** @raise Abcast_util.Wire.Error on malformed input. *)

  val encode_msg : msg -> string
  (** [Wire.to_string write_msg]. *)

  val decode_msg : string -> msg option
  (** Total decoder for untrusted input (network datagrams): [None] on
      any malformation, including trailing bytes. *)

  val make_msg_size : unit -> msg -> int
  (** A fresh size function with its own one-slot memo (keyed by physical
      equality) and scratch buffer: a multisend re-accounting the same
      message for every destination serializes it once. Per-consumer so
      that interleaved nodes of one simulation don't evict each other's
      slot. *)

  val msg_size : msg -> int
  (** Exact wire size in bytes, for network accounting — a shared
      [make_msg_size ()] instance for engine-level accounting (one
      consumer per simulation). *)

  (** Operations common to both protocol variants. *)
  module type NODE = sig
    type t

    val handler : t -> src:int -> msg -> unit
    (** The incoming-message dispatcher to register as the engine
        behaviour of this process. *)

    val broadcast : t -> ?on_agreed:(Payload.id -> unit) -> string -> Payload.id
    (** [A-broadcast]: hand a message to the protocol. Returns its
        identity immediately; [on_agreed] fires when the message enters
        the [Agreed] queue locally (the basic protocol's completion
        point, §4.2). *)

    val round : t -> int
    (** Current consensus round [k_p]. *)

    val unordered_count : t -> int
    (** Size of the [Unordered] set. *)

    val delivered_count : t -> int
    (** Length of the whole delivery sequence (including any checkpointed
        prefix). *)

    val delivered_tail : t -> Payload.t list
    (** Explicit (non-checkpointed) suffix of the delivery sequence —
      [A-deliver-sequence()] (§2.2). *)

    val delivery_vc : t -> Vclock.t
    (** Vector clock covering every delivered message. *)

    val agreed_snapshot : t -> Agreed.repr
    (** Snapshot of the [Agreed] queue (tests, state inspection). *)
  end

  (** The basic protocol (Fig. 2): minimal logging, full replay on
      recovery. *)
  module Basic : sig
    include NODE

    val create :
      ?gossip_period:int ->
      ?delta_gossip:bool ->
      ?gossip_full_every:int ->
      ?dissemination:[ `Gossip | `Ring ] ->
      ?max_batch_bytes:int ->
      ?need_cap:int ->
      ?trace_sample:int ->
      ?audit_every:int ->
      msg Abcast_sim.Engine.io ->
      on_deliver:(Payload.t -> unit) ->
      t
    (** Boot or recover this process. Recovery runs the replay procedure:
        it parses the consensus proposal/decision log, rebuilds [Agreed],
        re-delivers (calling [on_deliver] from the start — the upper layer
        is volatile too) and re-proposes the in-flight round (§4.2).
        [gossip_period] defaults to 3_000 simulated µs.

        [delta_gossip] (default [true]) gossips {!Digest} summaries and
        pulls missing entries instead of multisending the full [Unordered]
        set every period; every [gossip_full_every]'th tick (default 8)
        still ships the full set, so the paper's literal §4.2 liveness
        argument applies unchanged to that subsequence of gossips.
        [delta_gossip = false] restores Fig. 2/3 verbatim.

        [dissemination] (default [`Gossip]) selects the payload
        dissemination topology: [`Ring] forwards payload batches to the
        successor process only (the entries one event produces share one
        send, with no added wait), with the digest/pull gossip retained
        as the repair path after crashes. [max_batch_bytes] (default 24_000) bounds one
        consensus proposal's payload bytes — the adaptive batch is the
        whole backlog, cut at this budget. [need_cap] (default 128)
        bounds how many missing ids one digest exchange will pull — the
        repair path's flow control.

        [trace_sample] (default 0 = off) samples every [trace_sample]-th
        local broadcast for causal tracing: the payload carries a
        {!Trace_ctx} across every hop and each node records
        flight-recorder events stamped with it (see
        {!Abcast_sim.Flight}).

        [audit_every] (default 1 = every tick; 0 = off) piggybacks an
        {!Audit.cert} order certificate on every [audit_every]-th gossip
        or digest; receivers compare it against their own delivery hash
        chain and a mismatch trips the ["audit_diverged"] sentinel (an
        [io.alarm], a flight event, and a metric). *)
  end

  (** The alternative protocol (Figs. 3–5). *)
  module Alternative : sig
    include NODE

    type nonrec app = app = {
      checkpoint : unit -> string;
      install : string -> unit;
    }

    val create :
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
      ?fault_reorder_once:bool ->
      ?app:app ->
      msg Abcast_sim.Engine.io ->
      on_deliver:(Payload.t -> unit) ->
      t
    (** Boot or recover. Defaults: [checkpoint_period = 50_000] µs,
        [delta = 4] rounds (the paper's Δ), [early_return = true] (log
        [Unordered] on broadcast and complete immediately, §5.4),
        [incremental = true] (log only the new part, §5.5),
        [paranoid_log = false] ([true] turns the node into the
        naive-logging strawman used by experiments E1/E6: it checkpoints
        after every round). Without [app], checkpoints store the full
        message sequence; with it, the prefix is replaced by the
        application state and the consensus log is truncated (§5.2).

        [trim_state] (default true) applies the §5.3 optimization: a
        state transfer triggered by a gossip carries only the suffix the
        recipient is missing (falling back to the full snapshot when the
        missing prefix reaches into a compacted checkpoint).

        [delta_gossip]/[gossip_full_every]: as in {!Basic.create} —
        digest-based gossip with pull of missing entries and a periodic
        full-set fallback.

        [window] (default 1 — the paper's strictly sequential sequencer)
        is an extension: up to [window] consensus instances may run
        concurrently as a pipeline. Instances are opened in order; each
        proposal carries a disjoint identity-sorted slice of the
        [Unordered] backlog — only payloads not already covered by an
        earlier in-flight proposal — cut at [max_batch_bytes], so
        concurrent instances decide mostly-distinct batches instead of
        re-deciding the same prefix [window] times. Decisions may arrive
        out of order (they are buffered); deliveries still happen
        strictly in instance order, and a batch entry whose stream
        predecessor is missing is skipped deterministically and
        re-proposed rather than breaking the FIFO invariant.

        [dissemination]/[max_batch_bytes]/[need_cap]/[trace_sample]/
        [audit_every]: as in {!Basic.create}.

        [fault_reorder_once] (default false; tests only) arms a one-shot
        fault injection: the first decided batch carrying payloads of at
        least two streams is applied in reversed order, deliberately
        breaking total order on this node so the audit sentinel can be
        exercised end to end. *)

    val checkpoint_now : t -> unit
    (** Force a checkpoint immediately (tests and examples). *)

    val floor : t -> int
    (** Consensus truncation floor (0 until a checkpoint truncates). *)
  end
end
