(** The member-facing front end of a Corona server.

    Everything a server does toward its own clients, whichever role it
    plays in the deployment: the single {!Server} and every replicated node
    ([Replication.Node]) own one front end and call into it. It holds the
    client connection list, the member↔connection index, the relay
    registry ({!Relay_hub}) and the relay control replies, the join-ordered
    fan-out with its relay split, membership-change notification, the
    [Join_accepted] reply with paced state chunks, the [Log_reduced] reply,
    the join-state cache and one set of delivery counters.

    The front end keeps no group state: callers pass the group's local
    {!Membership.t} (and, for joins, its {!State_log.t}) per call. *)

type t

val create : Net.Fabric.t -> Net.Host.t -> t

(** {1 Client connections} *)

val accept :
  t ->
  Net.Tcp.conn ->
  live:(unit -> bool) ->
  on_request:(Net.Tcp.conn -> Proto.Message.request -> unit) ->
  on_lost:(Net.Tcp.close_reason -> Proto.Types.member_id list -> unit) ->
  unit
(** Wire a freshly accepted client connection. While [live ()] holds,
    requests go to [on_request]; when the connection closes, a dead relay's
    slice is handed to its next alive sibling, the connection's members are
    unbound, and [on_lost] gets the close reason and those members. *)

val bind : t -> Proto.Types.member_id -> Net.Tcp.conn -> unit
(** Route [member]'s traffic over [conn] (a rejoin over a new connection
    moves it). *)

val connected_clients : t -> int

val now : t -> float
(** The simulation clock. *)

val close_all : t -> unit
(** Close every client connection. *)

(** {1 Replies} *)

val reply : t -> Net.Tcp.conn -> Proto.Message.response -> unit

val fail : t -> Net.Tcp.conn -> Proto.Types.group_id -> string -> unit
(** [Request_failed]. *)

val to_member : t -> Proto.Types.member_id -> Proto.Message.response -> unit
(** Send to a member over its bound connection, if open. *)

val control : t -> Net.Tcp.conn -> Proto.Message.request -> unit
(** Answer a relay-control or liveness request ([Ping], [Relay_register],
    [Relay_proxy], [Relay_heartbeat]); group requests are ignored. *)

(** {1 Fan-out} *)

val fan_out :
  t ->
  group:Proto.Types.group_id ->
  ?exclude:Proto.Types.member_id ->
  Membership.t ->
  Proto.Message.response ->
  unit
(** Send a response to the group's local members in join order, minus
    [exclude]: one encode shared by every direct recipient, one spliced
    [Relay_fanout] frame per relay fronting proxied recipients. Counts as
    responses. *)

val deliver :
  t ->
  group:Proto.Types.group_id ->
  ?exclude:Proto.Types.member_id ->
  mcast:(Proto.Types.member_id, unit) Hashtbl.t ->
  Membership.t ->
  Proto.Message.response ->
  unit
(** {!fan_out} for a sequenced update, counted as deliveries. Members in
    [mcast] (usually none) are reached by one transmission on the group's
    IP-multicast channel instead of their TCP connection (§5.3 hybrid
    mode). *)

val notify :
  t ->
  group:Proto.Types.group_id ->
  ?members:Proto.Types.member list ->
  Membership.t ->
  Proto.Types.membership_change ->
  unit
(** [Membership_changed] to the local members that subscribed to
    notifications, minus the member that changed. [members] is the view
    carried in the message (default: the local membership). *)

val mcast_channel_name : Proto.Types.group_id -> string
(** The IP-multicast channel a group's hybrid-mode deliveries use. *)

(** {1 Join and log-reduction replies} *)

val prepare : t -> State_log.t -> Proto.Types.transfer_spec -> Transfer.prepared
(** A join-state payload through the front end's join-state cache. *)

val accept_join :
  t ->
  Net.Tcp.conn ->
  group:Proto.Types.group_id ->
  members:Proto.Types.member list ->
  multicast:bool ->
  ?chunk:int ->
  ?log:State_log.t ->
  Transfer.prepared ->
  unit
(** Reply to a completed join, if [conn] is still open. With [chunk], a
    snapshot larger than [chunk] bytes first goes out as paced
    [State_chunk] frames (cached per state version when [log] is the
    payload's source), then a [Join_accepted] carrying the rest. *)

val reduce_log : t -> Net.Tcp.conn -> group:Proto.Types.group_id -> State_log.t -> unit
(** Reduce the log and answer [Log_reduced] once the checkpoint is durable
    (at once when there is nothing to reduce). *)

(** {1 Accessors and counters} *)

val relay_hub : t -> Relay_hub.t

val transfer_cache : t -> Transfer.cache

val deliveries : t -> int
(** Sequenced-update deliveries, per recipient reached. *)

val bytes_delivered : t -> int

val responses : t -> int
(** Every other message sent to a client. *)

val relay_frames : t -> int
(** [Relay_fanout] frames sent ({!Relay_hub.frames_sent}). *)

val joins_served : t -> int

val transfer_bytes : t -> int
