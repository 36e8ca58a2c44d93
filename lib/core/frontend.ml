(* The member-facing front end shared by the single server and every
   replicated node: client connections, the member<->connection index, the
   relay registry, fan-out, notification and the join / log-reduction
   replies. The roles decide *what* goes to *which group*; this module owns
   *how* it reaches the group's local members.

   Encode-once invariant: every path that sends one logical message to
   several recipients serializes it exactly once ([M.pre_encode]) and
   shares the immutable encoding; the wire size comes from the cached
   bytes. Sequenced-update deliveries ([deliveries] / [bytes_delivered])
   are tallied separately from every other client-bound message
   ([responses]). *)

module T = Proto.Types
module M = Proto.Message

type t = {
  fabric : Net.Fabric.t;
  host : Net.Host.t;
  mutable conns : Net.Tcp.conn list;
  conn_of_member : (T.member_id, Net.Tcp.conn) Hashtbl.t;
  (* reverse index of [conn_of_member], keyed by connection id, so a
     disconnect touches only the members of that connection *)
  members_of_conn : (int, (T.member_id, unit) Hashtbl.t) Hashtbl.t;
  hub : Relay_hub.t;
  batch : Net.Tcp.batch; (* fan-out fill buffer, refilled per fan-out *)
  cache : Transfer.cache;
  (* Counters as mutable fields: the hot loop bumps a counter with a field
     store; the roles assemble their public stats records on demand. *)
  mutable deliveries : int;
  mutable bytes_delivered : int;
  mutable responses : int;
  mutable joins : int;
  mutable transfer_bytes : int;
}

let create fabric host =
  {
    fabric;
    host;
    conns = [];
    conn_of_member = Hashtbl.create 64;
    members_of_conn = Hashtbl.create 64;
    hub = Relay_hub.create ();
    batch = Net.Tcp.batch_create ();
    cache = Transfer.create_cache ();
    deliveries = 0;
    bytes_delivered = 0;
    responses = 0;
    joins = 0;
    transfer_bytes = 0;
  }

let relay_hub t = t.hub

let transfer_cache t = t.cache

let deliveries t = t.deliveries

let bytes_delivered t = t.bytes_delivered

let responses t = t.responses

let relay_frames t = Relay_hub.frames_sent t.hub

let joins_served t = t.joins

let transfer_bytes t = t.transfer_bytes

let connected_clients t = List.length (List.filter Net.Tcp.is_open t.conns)

let now t = Sim.Engine.now (Net.Fabric.engine t.fabric)

(* --- replies ----------------------------------------------------------- *)

let reply_encoded t conn e =
  t.responses <- t.responses + 1;
  M.send_encoded conn e

let reply t conn response = reply_encoded t conn (M.pre_encode (M.Response response))

let fail t conn group reason = reply t conn (M.Request_failed { group; reason })

let to_member t member response =
  match Hashtbl.find_opt t.conn_of_member member with
  | Some conn when Net.Tcp.is_open conn -> reply t conn response
  | Some _ | None -> ()

(* --- member / connection index ------------------------------------------ *)

let bind t member conn =
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

(* Forget a closed connection and return the members it carried. *)
let unbind_conn t conn =
  t.conns <- List.filter (fun c -> Net.Tcp.id c <> Net.Tcp.id conn) t.conns;
  let members =
    match Hashtbl.find_opt t.members_of_conn (Net.Tcp.id conn) with
    | Some set -> Hashtbl.fold (fun member () acc -> member :: acc) set []
    | None -> []
  in
  Hashtbl.remove t.members_of_conn (Net.Tcp.id conn);
  List.iter (fun member -> Hashtbl.remove t.conn_of_member member) members;
  members

(* --- relay control --------------------------------------------------------- *)

let control t conn (req : M.request) =
  match req with
  | M.Ping { nonce } -> reply t conn (M.Pong { nonce })
  | M.Relay_register { relay } ->
      let r = Relay_hub.register t.hub ~relay ~conn ~at:(now t) in
      reply t conn (M.Relay_registered { relay; index = r.Relay_hub.r_index });
      reply t conn
        (M.Relay_slice
           { relay; lo = r.Relay_hub.r_index; hi = r.Relay_hub.r_index + 1 })
  | M.Relay_proxy { relay } -> Relay_hub.register_proxy t.hub ~relay ~conn
  | M.Relay_heartbeat { relay; members } ->
      Relay_hub.heartbeat t.hub ~relay ~members ~at:(now t)
  | M.Create_group _ | M.Delete_group _ | M.Join _ | M.Leave _
  | M.Get_membership _ | M.Bcast _ | M.Acquire_lock _ | M.Release_lock _
  | M.Reduce_log _ | M.Resend _ ->
      ()

(* A relay died. Its proxied connections die with it, so the ordinary
   per-member cleanup handles the members; here the next alive sibling is
   told it now fronts the dead relay's slice — the members themselves fail
   over client-side and rejoin through it. *)
let relay_closed t conn =
  match Relay_hub.conn_closed t.hub conn with
  | Relay_hub.Control r -> (
      match Relay_hub.sibling t.hub r with
      | Some s when Net.Tcp.is_open s.Relay_hub.r_conn ->
          reply t s.Relay_hub.r_conn
            (M.Relay_slice
               {
                 relay = s.Relay_hub.r_id;
                 lo = r.Relay_hub.r_index;
                 hi = r.Relay_hub.r_index + 1;
               })
      | Some _ | None -> ())
  | Relay_hub.Proxied _ | Relay_hub.Not_relay -> ()

let accept t conn ~live ~on_request ~on_lost =
  t.conns <- conn :: t.conns;
  Net.Tcp.set_on_close conn (fun reason ->
      if live () then begin
        relay_closed t conn;
        on_lost reason (unbind_conn t conn)
      end);
  Net.Tcp.set_receiver conn (fun ~size:_ payload ->
      match payload with
      | M.Corona (M.Request req) -> if live () then on_request conn req
      | M.Corona (M.Response _) | _ -> ())

let close_all t =
  List.iter (fun c -> if Net.Tcp.is_open c then Net.Tcp.close c) t.conns;
  t.conns <- []

(* --- fan-out ------------------------------------------------------------

   The open connections of a group's local members in join order, minus
   [exclude] and anything [skip] rejects: the recipient batch handed to
   [Relay_hub.deliver], which splits off relay-proxied recipients. *)

let no_skip (_ : T.member_id) = false

let fill t ?exclude ?(skip = no_skip) members =
  Net.Tcp.batch_clear t.batch;
  List.iter
    (fun (m : Membership.entry) ->
      let excluded =
        match exclude with Some x -> x = m.member | None -> false
      in
      if not (excluded || skip m.member) then
        (* Exception-based lookup: per recipient per bcast, so [find_opt]'s
           [Some] would be a hot-loop allocation. *)
        match Hashtbl.find t.conn_of_member m.member with
        | conn -> if Net.Tcp.is_open conn then Net.Tcp.batch_add t.batch conn
        | exception Not_found -> ())
    (Membership.entries members)

let fan_out t ~group ?exclude members response =
  fill t ?exclude members;
  let d = Relay_hub.deliver t.hub ~group ?exclude ~inner:response t.batch in
  t.responses <- t.responses + d.Relay_hub.d_direct
[@@corona.hot]

let mcast_channel_name group = "corona-mcast:" ^ group

let deliver t ~group ?exclude ~mcast members response =
  let reached = Hashtbl.length mcast in
  let skip =
    if reached = 0 then None
    else begin
      (* One NIC transmission covers every subscribed member; sender
         exclusion for subscribed senders happens at the client.
         Deliveries count per subscriber reached. *)
      let e = M.pre_encode (M.Response response) in
      let wire = M.encoded_wire_size e in
      let chan = Net.Multicast.channel t.fabric ~name:(mcast_channel_name group) in
      t.deliveries <- t.deliveries + reached;
      t.bytes_delivered <- t.bytes_delivered + (reached * wire);
      Net.Multicast.send chan ~src:t.host ~size:wire (M.Corona (M.encoded_message e));
      Some (fun m -> Hashtbl.mem mcast m)
    end
  in
  fill t ?exclude ?skip members;
  (* One serialization shared by every point-to-point recipient; proxied
     recipients collapse to one spliced frame per relay. *)
  let d = Relay_hub.deliver t.hub ~group ?exclude ~inner:response t.batch in
  t.deliveries <- t.deliveries + d.Relay_hub.d_direct;
  t.bytes_delivered <- t.bytes_delivered + d.Relay_hub.d_bytes
[@@corona.hot]

let notify t ~group ?members local change =
  match Membership.notify_targets local with
  | [] -> ()
  | targets ->
      let members =
        match members with Some ms -> ms | None -> Membership.members local
      in
      let changed = T.changed_member change in
      Net.Tcp.batch_clear t.batch;
      List.iter
        (fun m ->
          if m <> changed then
            match Hashtbl.find t.conn_of_member m with
            | conn -> if Net.Tcp.is_open conn then Net.Tcp.batch_add t.batch conn
            | exception Not_found -> ())
        targets;
      let d =
        Relay_hub.deliver t.hub ~group ~exclude:changed
          ~inner:(M.Membership_changed { group; change; members })
          t.batch
      in
      t.responses <- t.responses + d.Relay_hub.d_direct
[@@corona.hot]

(* --- join and log-reduction replies (§3.2: customized per client) ------- *)

let prepare t log transfer = Transfer.prepare ~cache:t.cache log transfer

(* Pace pre-encoded [State_chunk] frames at ~half the NIC rate so
   interactive traffic interleaves — the QoS scheduler of [11] in its
   simplest form. The frames themselves are shared: for full-snapshot
   transfers they come out of the join-state cache, sliced and serialized
   once per state version rather than per joiner per chunk. *)
let send_chunked t conn ~frames ~finish =
  let engine = Net.Fabric.engine t.fabric in
  let pace chunk_bytes =
    2.0 *. float_of_int chunk_bytes /. Net.Host.nic_bandwidth t.host
  in
  let rec send = function
    | [] -> finish ()
    | { Transfer.cf_frame; cf_bytes } :: rest ->
        if Net.Tcp.is_open conn then begin
          reply_encoded t conn cf_frame;
          ignore
            (Sim.Engine.schedule engine ~delay:(pace cf_bytes) (fun () -> send rest))
        end
  in
  send frames

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

let accept_join t conn ~group ~members ~multicast ?chunk ?log (p : Transfer.prepared) =
  if Net.Tcp.is_open conn then begin
    t.joins <- t.joins + 1;
    t.transfer_bytes <- t.transfer_bytes + p.p_bytes;
    let accept p = reply_encoded t conn (join_accepted_frame ~group ~members ~multicast p) in
    match (chunk, p.p_state) with
    | Some chunk, M.Snapshot { objects; log_tail } when p.p_bytes > chunk ->
        let frames =
          match log with
          | Some log when p.p_full_snapshot -> Transfer.cached_chunk_frames t.cache log ~chunk
          | Some _ | None -> Transfer.chunk_frames_of ~group ~objects ~chunk
        in
        send_chunked t conn ~frames ~finish:(fun () ->
            accept
              { p with p_state = M.Snapshot { objects = []; log_tail }; p_enc_size = None })
    | (Some _ | None), _ -> accept p
  end

let reduce_log t conn ~group log =
  if State_log.log_length log = 0 then
    reply t conn (M.Log_reduced { group; upto = State_log.snapshot_seqno log })
  else
    State_log.reduce log ~on_done:(fun ~upto ->
        if Net.Tcp.is_open conn then reply t conn (M.Log_reduced { group; upto }))
