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

type group = {
  g : Group.t; (* the log (none when [maintain_state = false]), members *)
  g_locks : Locks.t;
  mutable g_next_seqno : int; (* the sequencer when the server keeps no log *)
}

type t = {
  fabric : Net.Fabric.t;
  server_host : Net.Host.t;
  cfg : config;
  storage : Server_storage.t;
  groups : (T.group_id, group) Hashtbl.t;
  fe : Frontend.t; (* clients, relays, fan-out and the join-state cache *)
  (* which groups a member currently belongs to, so a disconnect touches
     only those instead of scanning every group *)
  groups_of_member : (T.member_id, (T.group_id, unit) Hashtbl.t) Hashtbl.t;
  (* joins paused on §6 sender-assisted recovery: completed when that
     member's Resend arrives *)
  pending_recovery : (T.group_id * T.member_id, Group.joiner) Hashtbl.t;
  listener : Net.Tcp.listener option ref;
  (* The server's own counters; delivery and response counts live in the
     front end. The public [stats] record is assembled on demand. *)
  mutable s_requests_handled : int;
  mutable s_bcasts_sequenced : int;
}

let now t = Sim.Engine.now (Net.Fabric.engine t.fabric)

let host t = t.server_host

let config t = t.cfg

let stats t =
  {
    requests_handled = t.s_requests_handled;
    bcasts_sequenced = t.s_bcasts_sequenced;
    deliveries_sent = Frontend.deliveries t.fe;
    bytes_delivered = Frontend.bytes_delivered t.fe;
    responses_sent = Frontend.responses t.fe;
    joins_served = Frontend.joins_served t.fe;
    state_transfer_bytes = Frontend.transfer_bytes t.fe;
    relay_frames_sent = Frontend.relay_frames t.fe;
  }

let relay_hub t = Frontend.relay_hub t.fe

let connected_clients t = Frontend.connected_clients t.fe

(* --- queries --------------------------------------------------------- *)

let group_ids t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.groups [] |> List.sort String.compare

let group_exists t id = Hashtbl.mem t.groups id

let group_members t id =
  match Hashtbl.find_opt t.groups id with
  | Some sg -> Membership.members sg.g.members
  | None -> []

let group_log t id = Option.bind (Hashtbl.find_opt t.groups id) (fun sg -> Group.log sg.g)

let group_state t id = Option.map State_log.state (group_log t id)

let group_next_seqno t id =
  match Hashtbl.find_opt t.groups id with
  | Some sg -> (
      match Group.log sg.g with
      | Some log -> Some (State_log.next_seqno log)
      | None -> Some sg.g_next_seqno)
  | None -> None

let group_log_length t id = Option.map State_log.log_length (group_log t id)

let lock_holder t group lock =
  match Hashtbl.find_opt t.groups group with
  | Some sg -> Locks.holder sg.g_locks lock
  | None -> None

let lock_journal t id =
  match Hashtbl.find_opt t.groups id with
  | Some sg -> Locks.journal sg.g_locks
  | None -> []

let group_updates_from t id from =
  match group_log t id with Some log -> State_log.updates_from log from | None -> []

let group_base t id = Option.map State_log.base (group_log t id)

(* --- group lifecycle ------------------------------------------------- *)

let add_group t g =
  Hashtbl.replace t.groups g.Group.id
    { g; g_locks = Locks.create ~record_journal:t.cfg.record_lock_journal (); g_next_seqno = 0 }

(* --- member / group index ----------------------------------------------- *)

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

let drop_group t { g; _ } =
  Transfer.invalidate (Frontend.transfer_cache t.fe) g.id;
  List.iter
    (fun (m : Membership.entry) -> unindex_member_group t m.member g.id)
    (Membership.entries g.members);
  Group.drop g t.storage;
  Hashtbl.remove t.groups g.id

let grant t group (lock, next) =
  match next with
  | Some next_holder -> Frontend.to_member t.fe next_holder (M.Lock_granted { group; lock })
  | None -> ()

(* Remove a member: shared by leave, graceful disconnect and crash.
   Transient groups cease to exist at null membership (§3.1); persistent
   groups keep their state. *)
let remove_member t sg member ~change =
  let g = sg.g in
  Hashtbl.remove g.mcast member;
  if Membership.remove g.members member then begin
    unindex_member_group t member g.id;
    List.iter (grant t g.id) (Locks.release_all sg.g_locks ~member);
    Frontend.notify t.fe ~group:g.id g.members change;
    if Membership.is_empty g.members && not g.persistent then drop_group t sg
  end

(* --- state transfer (§3.2: customized per client) --------------------- *)

let join_state_for t sg (transfer : T.transfer_spec) : Transfer.prepared =
  match Group.log sg.g with
  | Some log -> Frontend.prepare t.fe log transfer
  | None -> Transfer.no_state ~at:sg.g_next_seqno

let transfer_cache_stats t = Transfer.cache_stats (Frontend.transfer_cache t.fe)

(* --- request handling -------------------------------------------------- *)

let fail t conn group reason = Frontend.fail t.fe conn group reason

let send_to_conn t conn response = Frontend.reply t.fe conn response

let with_access t conn group decision k =
  match decision with
  | Access_control.Allow -> k ()
  | Access_control.Deny reason -> fail t conn group reason

let handle_create t conn ~group ~persistent ~initial ~requester =
  with_access t conn group (t.cfg.access.can_create requester group) (fun () ->
      if Hashtbl.mem t.groups group then fail t conn group "group already exists"
      else begin
        let g = Group.create group ~persistent ~streams:1 in
        if t.cfg.maintain_state then
          g.logs <-
            [|
              Group.open_log t.storage ~durable:(t.cfg.logging <> No_logging)
                ~batching:t.cfg.wal_batching ~policy:t.cfg.reduction ~name:group ~persistent
                ~at_seqno:0 ~initial;
            |];
        add_group t g;
        send_to_conn t conn (M.Group_created { group })
      end)

let handle_delete t conn ~group ~requester =
  with_access t conn group (t.cfg.access.can_delete requester group) (fun () ->
      match Hashtbl.find_opt t.groups group with
      | None -> fail t conn group "no such group"
      | Some sg ->
          Frontend.fan_out t.fe ~group sg.g.members (M.Group_deleted { group });
          drop_group t sg;
          send_to_conn t conn (M.Group_deleted { group }))

let admit t sg (j : Group.joiner) =
  let multicast =
    t.cfg.use_ip_multicast && Net.Host.multicast_capable (Net.Tcp.peer_host j.j_conn)
  in
  (* [lean_joins]: the per-joiner membership list is the one O(members)
     cost left in a join at 100k scale — elide it. *)
  Group.admit sg.g t.fe j
    ~members:(if t.cfg.lean_joins then Some [] else None)
    ~multicast ~chunk:t.cfg.transfer_chunk_bytes (join_state_for t sg j.j_transfer)

let handle_join t conn ~group ~member ~role ~transfer ~notify =
  with_access t conn group (t.cfg.access.can_join member group role) (fun () ->
      match Hashtbl.find_opt t.groups group with
      | None -> fail t conn group "no such group"
      | Some sg ->
          Frontend.bind t.fe member conn;
          index_member_group t member group;
          let j =
            { Group.j_conn = conn; j_member = member; j_role = role; j_notify = notify;
              j_transfer = transfer }
          in
          (match (Group.log sg.g, transfer) with
          | Some log, T.Updates_since n when n > State_log.next_seqno log ->
              (* The client is ahead of our recovered log: our crash lost a
                 suffix it still holds. It is a member from now on, but its
                 join completes once the original sender has resent that
                 suffix (§6). *)
              Membership.add sg.g.members ~member ~role ~notify ~joined_at:(now t);
              Hashtbl.replace t.pending_recovery (group, member)
                { j with j_transfer = T.Full_state };
              send_to_conn t conn
                (M.Resend_request { group; from_seqno = State_log.next_seqno log })
          | (Some _ | None), _ -> admit t sg j);
          Frontend.notify t.fe ~group sg.g.members (T.Member_joined member))

let handle_leave t conn ~group ~member =
  match Hashtbl.find_opt t.groups group with
  | None -> fail t conn group "no such group"
  | Some sg ->
      send_to_conn t conn (M.Left { group });
      remove_member t sg member ~change:(T.Member_left member)

let role_in sg member = Membership.role_of sg.g.members member

let handle_bcast t conn ~group ~sender ~kind ~obj ~data ~mode =
  match
    Group.check_update t.cfg.access ~group ~sender (Hashtbl.find_opt t.groups group) role_in
  with
  | Error reason -> fail t conn group reason
  | Ok sg -> (
      t.s_bcasts_sequenced <- t.s_bcasts_sequenced + 1;
      let deliver (u : T.update) = Group.deliver sg.g t.fe mode u (M.Deliver u) in
      match Group.log sg.g with
      | Some log -> (
          let fanned = ref false in
          let u =
            State_log.append log ~kind ~obj ~data ~sender ~timestamp:(now t)
              ~on_durable:(fun u ->
                (* Sync mode: multicast only once the log write is on the
                   platter. *)
                match t.cfg.logging with
                | Sync_logging when not !fanned ->
                    fanned := true;
                    deliver u
                | Sync_logging | Async_logging | No_logging -> ())
          in
          match t.cfg.logging with
          | Async_logging | No_logging -> deliver u
          | Sync_logging -> ())
      | None ->
          let u =
            { T.seqno = sg.g_next_seqno; group; kind; obj; data; sender; timestamp = now t }
          in
          sg.g_next_seqno <- sg.g_next_seqno + 1;
          deliver u)
[@@corona.hot]

let handle_lock t conn ~group ~lock ~member ~acquire =
  match Hashtbl.find_opt t.groups group with
  | None -> fail t conn group "no such group"
  | Some sg ->
      let outcome, next = Group.request_lock sg.g_locks ~acquire ~lock ~member in
      Group.lock_reply t.fe conn ~group ~lock outcome;
      grant t group (lock, next)

let handle_reduce t conn ~group =
  match Hashtbl.find_opt t.groups group with
  | None -> fail t conn group "no such group"
  | Some sg -> (
      match Group.log sg.g with
      | Some log -> Frontend.reduce_log t.fe conn ~group log
      | None -> fail t conn group "server keeps no state")

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
      | Some sg ->
          send_to_conn t conn
            (M.Membership_info { group; members = Membership.members sg.g.members }))
  | M.Bcast { group; sender; kind; obj; data; mode } ->
      handle_bcast t conn ~group ~sender ~kind ~obj ~data ~mode
  | M.Acquire_lock { group; lock; member } ->
      handle_lock t conn ~group ~lock ~member ~acquire:true
  | M.Release_lock { group; lock; member } ->
      handle_lock t conn ~group ~lock ~member ~acquire:false
  | M.Reduce_log { group; member = _ } -> handle_reduce t conn ~group
  | M.Resend { group; member; updates } -> (
      match Hashtbl.find_opt t.groups group with
      | Some sg -> (
          match Group.log sg.g with
          | Some log ->
              (* Replay the lost suffix in order; the original sequence
                 numbers line up with our recovery position, so duplicates
                 (a second client resending the same suffix) fall out
                 naturally. *)
              List.iter
                (fun (u : T.update) ->
                  if u.seqno = State_log.next_seqno log then
                    State_log.apply_sequenced log u ~on_durable:(fun _ -> ()))
                updates;
              (match Hashtbl.find_opt t.pending_recovery (group, member) with
              | Some j ->
                  Hashtbl.remove t.pending_recovery (group, member);
                  if Net.Tcp.is_open j.j_conn then admit t sg j
              | None -> ())
          | None -> ())
      | None -> ())
  | M.Ping _ | M.Relay_register _ | M.Relay_proxy _ | M.Relay_heartbeat _ ->
      Frontend.control t.fe conn req

(* A client connection died: clean up every group its member(s) joined.
   Graceful closes count as leaves; broken ones as crashes (§3.2 membership
   awareness distinguishes the two). The reverse indexes make this
   proportional to the member's own groups, not members × groups. *)
let handle_disconnect t reason members_on_conn =
  List.iter
    (fun member ->
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
                | Some sg -> sg :: acc
                | None -> acc)
              set []
        | None -> []
      in
      List.iter (fun sg -> remove_member t sg member ~change) member_groups)
    members_on_conn

let always () = true

let accept t conn =
  Frontend.accept t.fe conn ~live:always ~on_request:(handle_request t)
    ~on_lost:(handle_disconnect t)

let recover_groups t =
  List.iter
    (fun (ck : State_log.checkpoint) ->
      let wal =
        Server_storage.wal_for t.storage ?batching:t.cfg.wal_batching ck.ck_group
      in
      let g = Group.create ck.ck_group ~persistent:ck.ck_persistent ~streams:1 in
      g.logs <-
        [|
          State_log.recover ck ~wal
            ~checkpoints:(Server_storage.checkpoints t.storage)
            ~policy:t.cfg.reduction;
        |];
      add_group t g)
    (Server_storage.recoverable_groups t.storage)

let create fabric server_host ?(config = default_config) ~storage () =
  let t =
    {
      fabric;
      server_host;
      cfg = config;
      storage;
      groups = Hashtbl.create 16;
      fe = Frontend.create fabric server_host;
      groups_of_member = Hashtbl.create 64;
      pending_recovery = Hashtbl.create 4;
      listener = ref None;
      s_requests_handled = 0;
      s_bcasts_sequenced = 0;
    }
  in
  if config.maintain_state then recover_groups t;
  t.listener :=
    Some (Net.Tcp.listen fabric server_host ~port:config.port ~on_accept:(accept t));
  t

let shutdown t =
  Hashtbl.iter
    (fun _ { g; _ } ->
      if g.persistent then
        Array.iter (fun log -> State_log.checkpoint_now log ~on_durable:(fun () -> ())) g.logs)
    t.groups;
  (match !(t.listener) with
  | Some l -> Net.Tcp.close_listener l
  | None -> ());
  t.listener := None;
  Frontend.close_all t.fe
