type consensus = [ `Paxos | `Coord ]

type app_factory = int -> Protocol.app * (Payload.t -> unit)

type group_app_factory =
  node:int -> group:int -> Protocol.app * (Payload.t -> unit)

(* Stack names carry the topology so that benches and metrics comparing
   gossip vs ring dissemination stay distinguishable. *)
let topology_suffix = function Some `Ring -> "+ring" | Some `Gossip | None -> ""

let basic ?(consensus = `Paxos) ?gossip_period ?delta_gossip
    ?gossip_full_every ?dissemination ?max_batch_bytes ?need_cap
    ?trace_sample ?audit_every () : Proto.t =
  let make (module C : Abcast_consensus.Consensus_intf.S) =
    let module P = Protocol.Make (C) in
    (module struct
      let name = "basic" ^ topology_suffix dissemination ^ "/" ^ C.name

      type msg = P.msg

      let msg_size = P.msg_size

      let write_msg = P.write_msg

      let read_msg = P.read_msg

      let encode_msg = P.encode_msg

      let decode_msg = P.decode_msg

      let msg_group _ = 0

      type t = P.Basic.t

      let create io ~deliver =
        P.Basic.create ?gossip_period ?delta_gossip ?gossip_full_every
          ?dissemination ?max_batch_bytes ?need_cap ?trace_sample
          ?audit_every io
          ~on_deliver:(fun p -> deliver ~group:0 p)

      let broadcast_blocks = true

      let handler = P.Basic.handler

      let broadcast = P.Basic.broadcast

      let round = P.Basic.round

      let delivered_count = P.Basic.delivered_count

      let delivered_tail = P.Basic.delivered_tail

      let delivery_vc = P.Basic.delivery_vc

      let unordered_count = P.Basic.unordered_count

      include Proto.Single_group (struct
        type nonrec t = t

        let broadcast = broadcast
        let round = round
        let delivered_count = delivered_count
        let delivered_tail = delivered_tail
        let delivery_vc = delivery_vc
        let unordered_count = unordered_count
      end)
    end : Proto.S)
  in
  match consensus with
  | `Paxos -> make (module Abcast_consensus.Paxos)
  | `Coord -> make (module Abcast_consensus.Coord)

let alternative_named label ?(consensus = `Paxos) ?gossip_period
    ?checkpoint_period ?delta ?early_return ?incremental ?paranoid_log
    ?window ?trim_state ?delta_gossip ?gossip_full_every ?dissemination
    ?max_batch_bytes ?need_cap ?trace_sample ?audit_every ?fault_reorder_node
    ?app_factory ?group_app_factory () : Proto.t =
  let make (module C : Abcast_consensus.Consensus_intf.S) =
    let module P = Protocol.Make (C) in
    (module struct
      let name = label ^ topology_suffix dissemination ^ "/" ^ C.name

      type msg = P.msg

      let msg_size = P.msg_size

      let write_msg = P.write_msg

      let read_msg = P.read_msg

      let encode_msg = P.encode_msg

      let decode_msg = P.decode_msg

      let msg_group _ = 0

      type t = P.Alternative.t

      let create io ~deliver =
        let deliver p = deliver ~group:0 p in
        let app, deliver =
          match app_factory with
          | None -> (None, deliver)
          | Some f ->
            let app, app_deliver = f io.Abcast_sim.Engine.self in
            ( Some app,
              fun p ->
                app_deliver p;
                deliver p )
        in
        (* The group-aware hook sees the io the shard mux rebinds per
           group, so one factory serves every group of a sharded stack
           and its checkpoints land under that group's scoped keys. *)
        let app, deliver =
          match group_app_factory with
          | None -> (app, deliver)
          | Some f ->
            let gapp, app_deliver =
              f ~node:io.Abcast_sim.Engine.self ~group:io.Abcast_sim.Engine.group
            in
            let app =
              match app with
              | None -> Some gapp
              | Some a ->
                Some
                  Protocol.
                    {
                      checkpoint =
                        (fun () ->
                          let wr = Abcast_util.Wire.writer () in
                          Abcast_util.Wire.write_string wr (a.checkpoint ());
                          Abcast_util.Wire.write_string wr (gapp.checkpoint ());
                          Abcast_util.Wire.contents wr);
                      install =
                        (fun blob ->
                          let rd = Abcast_util.Wire.reader blob in
                          a.install (Abcast_util.Wire.read_string rd);
                          gapp.install (Abcast_util.Wire.read_string rd));
                    }
            in
            ( app,
              fun p ->
                app_deliver p;
                deliver p )
        in
        (* The fault hook is addressed by node id so a sim run can arm
           exactly one process; every other node keeps a healthy stack
           and the audit sentinel has honest peers to disagree with. *)
        let fault_reorder_once =
          match fault_reorder_node with
          | Some i when i = io.Abcast_sim.Engine.self -> true
          | _ -> false
        in
        P.Alternative.create ?gossip_period ?checkpoint_period ?delta
          ?early_return ?incremental ?paranoid_log ?window ?trim_state
          ?delta_gossip ?gossip_full_every ?dissemination ?max_batch_bytes
          ?need_cap ?trace_sample ?audit_every ~fault_reorder_once ?app io
          ~on_deliver:deliver

      let broadcast_blocks = not (Option.value early_return ~default:true)

      let handler = P.Alternative.handler

      let broadcast = P.Alternative.broadcast

      let round = P.Alternative.round

      let delivered_count = P.Alternative.delivered_count

      let delivered_tail = P.Alternative.delivered_tail

      let delivery_vc = P.Alternative.delivery_vc

      let unordered_count = P.Alternative.unordered_count

      include Proto.Single_group (struct
        type nonrec t = t

        let broadcast = broadcast
        let round = round
        let delivered_count = delivered_count
        let delivered_tail = delivered_tail
        let delivery_vc = delivery_vc
        let unordered_count = unordered_count
      end)
    end : Proto.S)
  in
  match consensus with
  | `Paxos -> make (module Abcast_consensus.Paxos)
  | `Coord -> make (module Abcast_consensus.Coord)

let alternative ?consensus ?gossip_period ?checkpoint_period ?delta
    ?early_return ?incremental ?paranoid_log ?window ?trim_state ?delta_gossip
    ?gossip_full_every ?dissemination ?max_batch_bytes ?need_cap ?trace_sample
    ?audit_every ?fault_reorder_node ?app_factory ?group_app_factory () =
  alternative_named "alt" ?consensus ?gossip_period ?checkpoint_period ?delta
    ?early_return ?incremental ?paranoid_log ?window ?trim_state ?delta_gossip
    ?gossip_full_every ?dissemination ?max_batch_bytes ?need_cap ?trace_sample
    ?audit_every ?fault_reorder_node ?app_factory ?group_app_factory ()

(* With ring dissemination the payloads never wait on a gossip tick —
   digests only repair a torn ring — so the preset slows the gossip task
   down (10ms instead of the 3ms default): under a heavy backlog every
   digest exchange costs per-stream scans at each receiver, and at 3ms
   that bookkeeping was a measurable slice of the per-payload budget.
   [repair_period] / [repair_full_every] / [need_cap] expose that repair
   cadence and the Need-pull flow-control cap for per-shard tuning. *)
let throughput ?consensus ?(window = 4) ?(max_batch_bytes = 24_000)
    ?(repair_period = 10_000) ?(repair_full_every = 32) ?need_cap
    ?trace_sample ?audit_every ?fault_reorder_node ?group_app_factory () =
  alternative_named "alt" ?consensus ~window ~dissemination:`Ring
    ~max_batch_bytes ~gossip_full_every:repair_full_every
    ~gossip_period:repair_period ?need_cap ?trace_sample ?audit_every
    ?fault_reorder_node ?group_app_factory ()

let naive ?(consensus = `Paxos) () =
  alternative_named "naive" ~consensus ~paranoid_log:true ~early_return:true
    ~incremental:false ()

let sharded ?route ~shards stack = Shard.mux ?route ~shards stack
