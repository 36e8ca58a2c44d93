module T = Proto.Types
module M = Proto.Message

type logging_mode = No_logging | Async_logging | Sync_logging

type config = {
  port : int;
  maintain_state : bool;
  logging : logging_mode;
  reduction : State_log.reduction_policy;
  access : Access_control.t;
  use_ip_multicast : bool;
      (* §5.3 hybrid mode: deliveries go out on the group's IP-multicast
         channel for capable clients, point-to-point TCP for the rest *)
  transfer_chunk_bytes : int option;
      (* QoS-adaptive transfer pacing ([11], §5.3) *)
  record_lock_journal : bool;
      (* keep per-group lock grant journals for invariant checking *)
  wal_batching : Storage.Wal.batch_config option;
      (* group commit: coalesce log appends into one physical write per
         seek; None = one write per record *)
  lean_joins : bool;
      (* omit the O(members) membership list from Join_accepted replies so a
         100k-member join storm costs the root O(1) per join; relay-tier
         deployments at that scale turn this on *)
}

let default_config =
  {
    port = 7000;
    maintain_state = true;
    logging = Async_logging;
    reduction = State_log.No_reduction;
    access = Access_control.allow_all;
    use_ip_multicast = false;
    transfer_chunk_bytes = None;
    record_lock_journal = false;
    wal_batching = None;
    lean_joins = false;
  }

type stats = {
  requests_handled : int;
  bcasts_sequenced : int;
  deliveries_sent : int;
  bytes_delivered : int;
  responses_sent : int;
  joins_served : int;
  state_transfer_bytes : int;
  relay_frames_sent : int;
}

(* Sequencer-only bookkeeping when [maintain_state = false]. *)
type keeper = Stateful of State_log.t | Stateless of { mutable next_seqno : int }

type group = {
  g_id : T.group_id;
  g_persistent : bool;
  g_keeper : keeper;
  g_members : Membership.t;
  g_locks : Locks.t;
  g_mcast_members : (T.member_id, unit) Hashtbl.t;
      (* members served via the multicast channel rather than their TCP
         connection *)
}

type t = {
  fabric : Net.Fabric.t;
  server_host : Net.Host.t;
  cfg : config;
  storage : Server_storage.t;
  groups : (T.group_id, group) Hashtbl.t;
  conn_of_member : (T.member_id, Net.Tcp.conn) Hashtbl.t;
  (* reverse index of [conn_of_member], keyed by connection id, so a
     disconnect touches only the members of that connection *)
  members_of_conn : (int, (T.member_id, unit) Hashtbl.t) Hashtbl.t;
  (* which groups a member currently belongs to, so a disconnect touches
     only those instead of scanning every group *)
  groups_of_member : (T.member_id, (T.group_id, unit) Hashtbl.t) Hashtbl.t;
  (* joins paused on §6 sender-assisted recovery: completed when that
     member's Resend arrives *)
  pending_recovery : (T.group_id * T.member_id, Net.Tcp.conn * T.transfer_spec) Hashtbl.t;
  mutable client_conns : Net.Tcp.conn list;
  listener : Net.Tcp.listener option ref;
  transfer_cache : Transfer.cache;
  relay_hub : Relay_hub.t;
  fan_batch : Net.Tcp.batch; (* fan-out fill buffer, refilled per broadcast *)
  (* Stats as individual mutable fields: the hot loop bumps a counter with
     a field store instead of re-allocating a record per event; the public
     [stats] record is assembled on demand. *)
  mutable s_requests_handled : int;
  mutable s_bcasts_sequenced : int;
  mutable s_deliveries_sent : int;
  mutable s_bytes_delivered : int;
  mutable s_responses_sent : int;
  mutable s_joins_served : int;
  mutable s_state_transfer_bytes : int;
  mutable s_relay_frames_sent : int;
}

let now t = Sim.Engine.now (Net.Fabric.engine t.fabric)

let mcast_channel_name group = "corona-mcast:" ^ group

let host t = t.server_host

let config t = t.cfg

let stats t =
  {
    requests_handled = t.s_requests_handled;
    bcasts_sequenced = t.s_bcasts_sequenced;
    deliveries_sent = t.s_deliveries_sent;
    bytes_delivered = t.s_bytes_delivered;
    responses_sent = t.s_responses_sent;
    joins_served = t.s_joins_served;
    state_transfer_bytes = t.s_state_transfer_bytes;
    relay_frames_sent = t.s_relay_frames_sent;
  }

let relay_hub t = t.relay_hub

let connected_clients t = List.length (List.filter Net.Tcp.is_open t.client_conns)

(* --- queries --------------------------------------------------------- *)

let group_ids t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.groups [] |> List.sort String.compare

let group_exists t id = Hashtbl.mem t.groups id

let group_members t id =
  match Hashtbl.find_opt t.groups id with
  | Some g -> Membership.members g.g_members
  | None -> []

let group_state t id =
  match Hashtbl.find_opt t.groups id with
  | Some { g_keeper = Stateful log; _ } -> Some (State_log.state log)
  | Some { g_keeper = Stateless _; _ } | None -> None

let group_next_seqno t id =
  match Hashtbl.find_opt t.groups id with
  | Some { g_keeper = Stateful log; _ } -> Some (State_log.next_seqno log)
  | Some { g_keeper = Stateless s; _ } -> Some s.next_seqno
  | None -> None

let group_log_length t id =
  match Hashtbl.find_opt t.groups id with
  | Some { g_keeper = Stateful log; _ } -> Some (State_log.log_length log)
  | Some { g_keeper = Stateless _; _ } | None -> None

let lock_holder t group lock =
  match Hashtbl.find_opt t.groups group with
  | Some g -> Locks.holder g.g_locks lock
  | None -> None

let lock_journal t id =
  match Hashtbl.find_opt t.groups id with
  | Some g -> Locks.journal g.g_locks
  | None -> []

let group_updates_from t id from =
  match Hashtbl.find_opt t.groups id with
  | Some { g_keeper = Stateful log; _ } -> State_log.updates_from log from
  | Some { g_keeper = Stateless _; _ } | None -> []

let group_base t id =
  match Hashtbl.find_opt t.groups id with
  | Some { g_keeper = Stateful log; _ } -> Some (State_log.base log)
  | Some { g_keeper = Stateless _; _ } | None -> None

(* --- sending ---------------------------------------------------------

   Encode-once invariant: every path that sends one logical message to
   several recipients serializes it exactly once ([M.pre_encode]) and
   shares the immutable encoding; the wire size comes from the cached
   bytes. Control replies ([responses_sent]) are tallied separately from
   sequenced-update deliveries ([deliveries_sent] / [bytes_delivered]). *)

let send_encoded_response t conn e =
  t.s_responses_sent <- t.s_responses_sent + 1;
  M.send_encoded conn e

let send_to_conn t conn response =
  send_encoded_response t conn (M.pre_encode (M.Response response))

let send_encoded_to_member t member e =
  match Hashtbl.find_opt t.conn_of_member member with
  | Some conn when Net.Tcp.is_open conn -> send_encoded_response t conn e
  | Some _ | None -> ()

let send_to_member t member response =
  send_encoded_to_member t member (M.pre_encode (M.Response response))

(* The open connections of a group's members in join order, minus [exclude]
   and anything [skip] rejects: the recipient list handed to the batched
   transmit, in the same order the per-member send loop used to walk. *)
let no_skip (_ : T.member_id) = false

let fill_batch t g ?exclude ?(skip = no_skip) () =
  Net.Tcp.batch_clear t.fan_batch;
  List.iter
    (fun (m : Membership.entry) ->
      let excluded =
        match exclude with Some x -> x = m.member | None -> false
      in
      if not (excluded || skip m.member) then
        (* Exception-based lookup: per recipient per bcast, so [find_opt]'s
           [Some] would be a hot-loop allocation. *)
        match Hashtbl.find t.conn_of_member m.member with
        | conn -> if Net.Tcp.is_open conn then Net.Tcp.batch_add t.fan_batch conn
        | exception Not_found -> ())
    (Membership.entries g.g_members)

(* Fan out to group members in join order, optionally skipping one:
   one encode shared by all direct recipients, one spliced [Relay_fanout]
   frame shared by every relay fronting proxied recipients. *)
let fan_out t g ?exclude response =
  fill_batch t g ?exclude ();
  let d =
    Relay_hub.deliver t.relay_hub ~group:g.g_id ?exclude
      ~inner:response t.fan_batch
  in
  t.s_responses_sent <- t.s_responses_sent + d.Relay_hub.d_direct;
  t.s_relay_frames_sent <- t.s_relay_frames_sent + d.Relay_hub.d_frames
[@@corona.hot]

let notify_membership_change t g change =
  match Membership.notify_targets g.g_members with
  | [] -> ()
  | targets ->
      let members = Membership.members g.g_members in
      let changed = T.changed_member change in
      Net.Tcp.batch_clear t.fan_batch;
      List.iter
        (fun m ->
          if m <> changed then
            match Hashtbl.find t.conn_of_member m with
            | conn -> if Net.Tcp.is_open conn then Net.Tcp.batch_add t.fan_batch conn
            | exception Not_found -> ())
        targets;
      let d =
        Relay_hub.deliver t.relay_hub ~group:g.g_id ~exclude:changed
          ~inner:(M.Membership_changed { group = g.g_id; change; members })
          t.fan_batch
      in
      t.s_responses_sent <- t.s_responses_sent + d.Relay_hub.d_direct;
      t.s_relay_frames_sent <- t.s_relay_frames_sent + d.Relay_hub.d_frames
[@@corona.hot]

(* --- group lifecycle ------------------------------------------------- *)

let make_keeper t ~group ~persistent ~initial =
  if t.cfg.maintain_state then begin
    let wal =
      match t.cfg.logging with
      | No_logging -> Storage.Wal.create_ephemeral ~name:group
      | Async_logging | Sync_logging ->
          Server_storage.wal_for t.storage ?batching:t.cfg.wal_batching group
    in
    Stateful
      (State_log.create ~group ~persistent ~wal
         ~checkpoints:(Server_storage.checkpoints t.storage)
         ~policy:t.cfg.reduction ~initial ())
  end
  else Stateless { next_seqno = 0 }

(* --- member / connection indexes -------------------------------------- *)

let bind_member_conn t member conn =
  (match Hashtbl.find_opt t.conn_of_member member with
  | Some old when Net.Tcp.id old <> Net.Tcp.id conn -> (
      (* rejoin over a new connection: unhook from the old one's set *)
      match Hashtbl.find_opt t.members_of_conn (Net.Tcp.id old) with
      | Some set -> Hashtbl.remove set member
      | None -> ())
  | Some _ | None -> ());
  Hashtbl.replace t.conn_of_member member conn;
  let set =
    match Hashtbl.find_opt t.members_of_conn (Net.Tcp.id conn) with
    | Some s -> s
    | None ->
        let s = Hashtbl.create 4 in
        Hashtbl.replace t.members_of_conn (Net.Tcp.id conn) s;
        s
  in
  Hashtbl.replace set member ()

let index_member_group t member group =
  let set =
    match Hashtbl.find_opt t.groups_of_member member with
    | Some s -> s
    | None ->
        let s = Hashtbl.create 4 in
        Hashtbl.replace t.groups_of_member member s;
        s
  in
  Hashtbl.replace set group ()

let unindex_member_group t member group =
  match Hashtbl.find_opt t.groups_of_member member with
  | Some set ->
      Hashtbl.remove set group;
      if Hashtbl.length set = 0 then Hashtbl.remove t.groups_of_member member
  | None -> ()

let drop_group t g =
  Transfer.invalidate t.transfer_cache g.g_id;
  (match g.g_keeper with
  | Stateful log -> State_log.delete_durable log
  | Stateless _ -> ());
  List.iter
    (fun (m : Membership.entry) -> unindex_member_group t m.member g.g_id)
    (Membership.entries g.g_members);
  Server_storage.drop_group t.storage g.g_id;
  Hashtbl.remove t.groups g.g_id

(* Transient groups cease to exist at null membership (§3.1); persistent
   groups keep their state. *)
let handle_empty_group t g =
  if Membership.is_empty g.g_members && not g.g_persistent then drop_group t g

(* Remove a member: shared by leave, graceful disconnect and crash. *)
let remove_member t g member ~change =
  Hashtbl.remove g.g_mcast_members member;
  if Membership.remove g.g_members member then begin
    unindex_member_group t member g.g_id;
    List.iter
      (fun (lock, next) ->
        match next with
        | Some next_holder ->
            send_to_member t next_holder (M.Lock_granted { group = g.g_id; lock })
        | None -> ())
      (Locks.release_all g.g_locks ~member);
    notify_membership_change t g change;
    handle_empty_group t g
  end

(* --- state transfer (§3.2: customized per client) --------------------- *)

(* Pace pre-encoded [State_chunk] frames at ~half the NIC rate so
   interactive traffic interleaves — the QoS scheduler of [11] in its
   simplest form. The frames themselves are shared: for full-snapshot
   transfers they come out of the join-state cache, sliced and serialized
   once per state version rather than per joiner per chunk. *)
let send_chunked t conn ~frames ~finish =
  let engine = Net.Fabric.engine t.fabric in
  let pace chunk_bytes =
    2.0 *. float_of_int chunk_bytes /. Net.Host.nic_bandwidth t.server_host
  in
  let rec send = function
    | [] -> finish ()
    | { Transfer.cf_frame; cf_bytes } :: rest ->
        if Net.Tcp.is_open conn then begin
          send_encoded_response t conn cf_frame;
          ignore
            (Sim.Engine.schedule engine ~delay:(pace cf_bytes) (fun () -> send rest))
        end
  in
  send frames

let join_state_for t keeper (transfer : T.transfer_spec) : Transfer.prepared =
  match keeper with
  | Stateless s -> Transfer.no_state ~at:s.next_seqno
  | Stateful log -> Transfer.prepare ~cache:t.transfer_cache log transfer

(* One Join_accepted frame. Cache-served payloads add the shared state
   size to the per-joiner fields; everything else pre-encodes the whole
   frame. *)
let join_accepted_frame ~group ~members ~multicast (p : Transfer.prepared) =
  match p.p_enc_size with
  | Some state_size ->
      M.pre_encode_join_accepted ~group ~at_seqno:p.p_at ~state:p.p_state
        ~state_size ~members ~multicast ()
  | None ->
      M.pre_encode
        (M.Response
           (M.Join_accepted
              { group; at_seqno = p.p_at; state = p.p_state; members; multicast }))

let transfer_cache_stats t = Transfer.cache_stats t.transfer_cache

(* --- request handling -------------------------------------------------- *)

let fail t conn group reason = send_to_conn t conn (M.Request_failed { group; reason })

let with_access t conn group decision k =
  match decision with
  | Access_control.Allow -> k ()
  | Access_control.Deny reason -> fail t conn group reason

let handle_create t conn ~group ~persistent ~initial ~requester =
  with_access t conn group (t.cfg.access.can_create requester group) (fun () ->
      if Hashtbl.mem t.groups group then fail t conn group "group already exists"
      else begin
        let g =
          {
            g_id = group;
            g_persistent = persistent;
            g_keeper = make_keeper t ~group ~persistent ~initial;
            g_members = Membership.create ();
            g_locks = Locks.create ~record_journal:t.cfg.record_lock_journal ();
            g_mcast_members = Hashtbl.create 8;
          }
        in
        Hashtbl.replace t.groups group g;
        send_to_conn t conn (M.Group_created { group })
      end)

let handle_delete t conn ~group ~requester =
  with_access t conn group (t.cfg.access.can_delete requester group) (fun () ->
      match Hashtbl.find_opt t.groups group with
      | None -> fail t conn group "no such group"
      | Some g ->
          fan_out t g (M.Group_deleted { group });
          drop_group t g;
          send_to_conn t conn (M.Group_deleted { group }))

(* Outcome of the §6 recovery check inside a join. An explicit result
   rather than a [raise Exit] escape, so an unrelated [Exit] from deeper in
   the call tree can never be silently swallowed by the caller. *)
type join_outcome = Join_done | Join_deferred

let handle_join t conn ~group ~member ~role ~transfer ~notify =
  with_access t conn group (t.cfg.access.can_join member group role) (fun () ->
      match Hashtbl.find_opt t.groups group with
      | None -> fail t conn group "no such group"
      | Some g -> (
          bind_member_conn t member conn;
          Membership.add g.g_members ~member ~role ~notify ~joined_at:(now t);
          index_member_group t member group;
          let outcome =
            match (g.g_keeper, transfer) with
            | Stateful log, T.Updates_since n when n > State_log.next_seqno log ->
                (* The client is ahead of our recovered log: our crash lost
                   a suffix it still holds. Retrieve it from the original
                   sender (§6) before completing the join. *)
                Hashtbl.replace t.pending_recovery (group, member)
                  (conn, T.Full_state);
                send_to_conn t conn
                  (M.Resend_request { group; from_seqno = State_log.next_seqno log });
                notify_membership_change t g (T.Member_joined member);
                Join_deferred
            | (Stateful _ | Stateless _), _ -> Join_done
          in
          match outcome with
          | Join_deferred -> ()
          | Join_done ->
              let multicast =
                t.cfg.use_ip_multicast
                && Net.Host.multicast_capable (Net.Tcp.peer_host conn)
              in
              if multicast then Hashtbl.replace g.g_mcast_members member ()
              else Hashtbl.remove g.g_mcast_members member;
              let p = join_state_for t g.g_keeper transfer in
              t.s_joins_served <- t.s_joins_served + 1;
              t.s_state_transfer_bytes <- t.s_state_transfer_bytes + p.p_bytes;
              (* [lean_joins]: the per-joiner membership list is the one
                 O(members) cost left in a join at 100k scale — elide it. *)
              let members =
                if t.cfg.lean_joins then [] else Membership.members g.g_members
              in
              let accept p =
                send_encoded_response t conn
                  (join_accepted_frame ~group ~members ~multicast p)
              in
              (match (t.cfg.transfer_chunk_bytes, p.p_state) with
              | Some chunk, M.Snapshot { objects; log_tail }
                when p.p_bytes > chunk ->
                  let frames =
                    match g.g_keeper with
                    | Stateful log when p.p_full_snapshot ->
                        Transfer.cached_chunk_frames t.transfer_cache log ~chunk
                    | Stateful _ | Stateless _ ->
                        Transfer.chunk_frames_of ~group ~objects ~chunk
                  in
                  send_chunked t conn ~frames ~finish:(fun () ->
                      accept
                        {
                          p with
                          p_state = M.Snapshot { objects = []; log_tail };
                          p_enc_size = None;
                        })
              | (Some _ | None), _ -> accept p);
              notify_membership_change t g (T.Member_joined member)))

let handle_leave t conn ~group ~member =
  match Hashtbl.find_opt t.groups group with
  | None -> fail t conn group "no such group"
  | Some g ->
      send_to_conn t conn (M.Left { group });
      remove_member t g member ~change:(T.Member_left member)

let handle_bcast t conn ~group ~sender ~kind ~obj ~data ~mode =
  with_access t conn group (t.cfg.access.can_update sender group) (fun () ->
      match Hashtbl.find_opt t.groups group with
      | None -> fail t conn group "no such group"
      | Some g -> (
          match Membership.role_of g.g_members sender with
          | None -> fail t conn group "sender is not a member"
          | Some T.Observer -> fail t conn group "observers may not update shared state"
          | Some T.Principal ->
              t.s_bcasts_sequenced <- t.s_bcasts_sequenced + 1;
              let exclude =
                match mode with
                | T.Sender_exclusive -> Some sender
                | T.Sender_inclusive -> None
              in
              let deliver (u : T.update) =
                let mcast_reached = Hashtbl.length g.g_mcast_members in
                if mcast_reached > 0 then begin
                  (* One NIC transmission covers every subscribed member;
                     sender exclusion for subscribed senders happens at the
                     client. Deliveries count per subscriber reached. *)
                  let e = M.pre_encode (M.Response (M.Deliver u)) in
                  let wire = M.encoded_wire_size e in
                  let chan =
                    Net.Multicast.channel t.fabric ~name:(mcast_channel_name g.g_id)
                  in
                  t.s_deliveries_sent <- t.s_deliveries_sent + mcast_reached;
                  t.s_bytes_delivered <- t.s_bytes_delivered + (mcast_reached * wire);
                  Net.Multicast.send chan ~src:t.server_host ~size:wire
                    (M.Corona (M.encoded_message e))
                end;
                fill_batch t g ?exclude
                  ~skip:(fun m -> Hashtbl.mem g.g_mcast_members m)
                  ();
                (* One serialization shared by every point-to-point
                   recipient; proxied recipients collapse to one spliced
                   frame per relay. *)
                let d =
                  Relay_hub.deliver t.relay_hub ~group ?exclude
                    ~inner:(M.Deliver u) t.fan_batch
                in
                t.s_deliveries_sent <- t.s_deliveries_sent + d.Relay_hub.d_direct;
                t.s_bytes_delivered <-
                  t.s_bytes_delivered + d.Relay_hub.d_direct_bytes
                  + d.Relay_hub.d_frame_bytes;
                t.s_relay_frames_sent <-
                  t.s_relay_frames_sent + d.Relay_hub.d_frames
              in
              (match g.g_keeper with
              | Stateful log -> (
                  let fanned = ref false in
                  let u =
                    State_log.append log ~kind ~obj ~data ~sender ~timestamp:(now t)
                      ~on_durable:(fun u ->
                        (* Sync mode: multicast only once the log write is
                           on the platter. *)
                        match t.cfg.logging with
                        | Sync_logging when not !fanned ->
                            fanned := true;
                            deliver u
                        | Sync_logging | Async_logging | No_logging -> ())
                  in
                  match t.cfg.logging with
                  | Async_logging | No_logging -> deliver u
                  | Sync_logging -> ())
              | Stateless s ->
                  let u =
                    {
                      T.seqno = s.next_seqno;
                      group;
                      kind;
                      obj;
                      data;
                      sender;
                      timestamp = now t;
                    }
                  in
                  s.next_seqno <- s.next_seqno + 1;
                  deliver u)))
[@@corona.hot]

let handle_lock_acquire t conn ~group ~lock ~member =
  match Hashtbl.find_opt t.groups group with
  | None -> fail t conn group "no such group"
  | Some g -> (
      match Locks.acquire g.g_locks ~lock ~member with
      | `Granted -> send_to_conn t conn (M.Lock_granted { group; lock })
      | `Busy holder -> send_to_conn t conn (M.Lock_busy { group; lock; holder }))

let handle_lock_release t conn ~group ~lock ~member =
  match Hashtbl.find_opt t.groups group with
  | None -> fail t conn group "no such group"
  | Some g -> (
      match Locks.release g.g_locks ~lock ~member with
      | `Not_holder -> fail t conn group "not the lock holder"
      | `Released next ->
          send_to_conn t conn (M.Lock_released { group; lock });
          (match next with
          | Some next_holder ->
              send_to_member t next_holder (M.Lock_granted { group; lock })
          | None -> ()))

let handle_reduce t conn ~group =
  match Hashtbl.find_opt t.groups group with
  | None -> fail t conn group "no such group"
  | Some { g_keeper = Stateless _; _ } -> fail t conn group "server keeps no state"
  | Some { g_keeper = Stateful log; _ } ->
      if State_log.log_length log = 0 then
        send_to_conn t conn (M.Log_reduced { group; upto = State_log.snapshot_seqno log })
      else
        State_log.reduce log ~on_done:(fun ~upto ->
            if Net.Tcp.is_open conn then
              send_to_conn t conn (M.Log_reduced { group; upto }))

let handle_request t conn (req : M.request) =
  t.s_requests_handled <- t.s_requests_handled + 1;
  match req with
  | M.Create_group { group; creator; persistent; initial } ->
      handle_create t conn ~group ~persistent ~initial ~requester:creator
  | M.Delete_group { group; requester } -> handle_delete t conn ~group ~requester
  | M.Join { group; member; role; transfer; notify } ->
      handle_join t conn ~group ~member ~role ~transfer ~notify
  | M.Leave { group; member } -> handle_leave t conn ~group ~member
  | M.Get_membership { group } -> (
      match Hashtbl.find_opt t.groups group with
      | None -> fail t conn group "no such group"
      | Some g ->
          send_to_conn t conn
            (M.Membership_info { group; members = Membership.members g.g_members }))
  | M.Bcast { group; sender; kind; obj; data; mode } ->
      handle_bcast t conn ~group ~sender ~kind ~obj ~data ~mode
  | M.Acquire_lock { group; lock; member } ->
      handle_lock_acquire t conn ~group ~lock ~member
  | M.Release_lock { group; lock; member } ->
      handle_lock_release t conn ~group ~lock ~member
  | M.Reduce_log { group; member = _ } -> handle_reduce t conn ~group
  | M.Resend { group; member; updates } -> (
      match Hashtbl.find_opt t.groups group with
      | Some ({ g_keeper = Stateful log; _ } as g) ->
          (* Replay the lost suffix in order; the original sequence numbers
             line up with our recovery position, so duplicates (a second
             client resending the same suffix) fall out naturally. *)
          List.iter
            (fun (u : T.update) ->
              if u.seqno = State_log.next_seqno log then
                State_log.apply_sequenced log u ~on_durable:(fun _ -> ()))
            updates;
          (match Hashtbl.find_opt t.pending_recovery (group, member) with
          | Some (conn', transfer) ->
              Hashtbl.remove t.pending_recovery (group, member);
              if Net.Tcp.is_open conn' then begin
                let p = join_state_for t g.g_keeper transfer in
                t.s_joins_served <- t.s_joins_served + 1;
                t.s_state_transfer_bytes <- t.s_state_transfer_bytes + p.p_bytes;
                send_encoded_response t conn'
                  (join_accepted_frame ~group
                     ~members:(Membership.members g.g_members)
                     ~multicast:(Hashtbl.mem g.g_mcast_members member)
                     p)
              end
          | None -> ())
      | Some { g_keeper = Stateless _; _ } | None -> ())
  | M.Ping { nonce } -> send_to_conn t conn (M.Pong { nonce })
  | M.Relay_register { relay } ->
      let r = Relay_hub.register t.relay_hub ~relay ~conn ~at:(now t) in
      send_to_conn t conn
        (M.Relay_registered { relay; index = r.Relay_hub.r_index });
      send_to_conn t conn
        (M.Relay_slice
           { relay; lo = r.Relay_hub.r_index; hi = r.Relay_hub.r_index + 1 })
  | M.Relay_proxy { relay } -> Relay_hub.register_proxy t.relay_hub ~relay ~conn
  | M.Relay_heartbeat { relay; members } ->
      Relay_hub.heartbeat t.relay_hub ~relay ~members ~at:(now t)

(* A client connection died: clean up every group its member(s) joined.
   Graceful closes count as leaves; broken ones as crashes (§3.2 membership
   awareness distinguishes the two). The reverse indexes make this
   proportional to the member's own groups, not members × groups. *)
let handle_disconnect t conn reason =
  (match Relay_hub.conn_closed t.relay_hub conn with
  | Relay_hub.Control r -> (
      (* A relay died. Its proxied connections die with it, so the ordinary
         per-member cleanup below handles the members; here the next alive
         sibling is told it now fronts the dead relay's slice — the members
         themselves fail over client-side and rejoin through it. *)
      match Relay_hub.sibling t.relay_hub r with
      | Some s when Net.Tcp.is_open s.Relay_hub.r_conn ->
          send_to_conn t s.Relay_hub.r_conn
            (M.Relay_slice
               {
                 relay = s.Relay_hub.r_id;
                 lo = r.Relay_hub.r_index;
                 hi = r.Relay_hub.r_index + 1;
               })
      | Some _ | None -> ())
  | Relay_hub.Proxied _ | Relay_hub.Not_relay -> ());
  t.client_conns <- List.filter (fun c -> Net.Tcp.id c <> Net.Tcp.id conn) t.client_conns;
  let members_on_conn =
    match Hashtbl.find_opt t.members_of_conn (Net.Tcp.id conn) with
    | Some set -> Hashtbl.fold (fun member () acc -> member :: acc) set []
    | None -> []
  in
  Hashtbl.remove t.members_of_conn (Net.Tcp.id conn);
  List.iter
    (fun member ->
      Hashtbl.remove t.conn_of_member member;
      let change =
        match reason with
        | Net.Tcp.Graceful -> T.Member_left member
        | Net.Tcp.Peer_crashed | Net.Tcp.Rejected -> T.Member_crashed member
      in
      let member_groups =
        match Hashtbl.find_opt t.groups_of_member member with
        | Some set ->
            Hashtbl.fold
              (fun gid () acc ->
                match Hashtbl.find_opt t.groups gid with
                | Some g -> g :: acc
                | None -> acc)
              set []
        | None -> []
      in
      List.iter (fun g -> remove_member t g member ~change) member_groups)
    members_on_conn

let accept t conn =
  t.client_conns <- conn :: t.client_conns;
  Net.Tcp.set_on_close conn (fun reason -> handle_disconnect t conn reason);
  Net.Tcp.set_receiver conn (fun ~size:_ payload ->
      match payload with
      | M.Corona (M.Request req) -> handle_request t conn req
      | M.Corona (M.Response _) | _ -> ())

let recover_groups t =
  List.iter
    (fun (ck : State_log.checkpoint) ->
      let wal =
        Server_storage.wal_for t.storage ?batching:t.cfg.wal_batching ck.ck_group
      in
      let log =
        State_log.recover ck ~wal
          ~checkpoints:(Server_storage.checkpoints t.storage)
          ~policy:t.cfg.reduction
      in
      Hashtbl.replace t.groups ck.ck_group
        {
          g_id = ck.ck_group;
          g_persistent = ck.ck_persistent;
          g_keeper = Stateful log;
          g_members = Membership.create ();
          g_locks = Locks.create ~record_journal:t.cfg.record_lock_journal ();
          g_mcast_members = Hashtbl.create 8;
        })
    (Server_storage.recoverable_groups t.storage)

let create fabric server_host ?(config = default_config) ~storage () =
  let t =
    {
      fabric;
      server_host;
      cfg = config;
      storage;
      groups = Hashtbl.create 16;
      conn_of_member = Hashtbl.create 64;
      members_of_conn = Hashtbl.create 64;
      groups_of_member = Hashtbl.create 64;
      pending_recovery = Hashtbl.create 4;
      client_conns = [];
      listener = ref None;
      transfer_cache = Transfer.create_cache ();
      relay_hub = Relay_hub.create ();
      fan_batch = Net.Tcp.batch_create ();
      s_requests_handled = 0;
      s_bcasts_sequenced = 0;
      s_deliveries_sent = 0;
      s_bytes_delivered = 0;
      s_responses_sent = 0;
      s_joins_served = 0;
      s_state_transfer_bytes = 0;
      s_relay_frames_sent = 0;
    }
  in
  if config.maintain_state then recover_groups t;
  t.listener :=
    Some (Net.Tcp.listen fabric server_host ~port:config.port ~on_accept:(accept t));
  t

let shutdown t =
  Hashtbl.iter
    (fun _ g ->
      match g.g_keeper with
      | Stateful log when g.g_persistent ->
          State_log.checkpoint_now log ~on_durable:(fun () -> ())
      | Stateful _ | Stateless _ -> ())
    t.groups;
  (match !(t.listener) with
  | Some l -> Net.Tcp.close_listener l
  | None -> ());
  t.listener := None;
  List.iter (fun c -> if Net.Tcp.is_open c then Net.Tcp.close c) t.client_conns;
  t.client_conns <- []
