(** The per-group engine: one server's copy of a group, and the group
    decisions every deployment shares.

    The single {!Server}, each copy a replicated node keeps
    ([Replication.Node]) and the shard streams of a sharded copy all run
    the same rules: who may update ({!check_update}), how a join completes
    ({!admit}), how a sequenced update reaches the local members
    ({!apply}), how a log is opened ({!open_log}) and how a lock outcome
    answers the client ({!lock_reply}). The roles keep only what differs:
    the server's sequencer and lock tables, a node's hold-back queues,
    global member list and forwarding. *)

type t = {
  id : Proto.Types.group_id;
  mutable persistent : bool;
  mutable logs : State_log.t array;
      (** One log per sequencing stream: one for a classic copy, one per
          shard for a sharded copy; empty while the copy holds no state
          (and on a server that keeps none). *)
  members : Membership.t;  (** the members this server serves *)
  mcast : (Proto.Types.member_id, unit) Hashtbl.t;
      (** members reached on the group's IP-multicast channel (§5.3) *)
  last_og : (string, int) Hashtbl.t array;
      (** per stream: the last origin sequence number applied from each
          origin server (the duplicate filter of {!apply}) *)
}

val create : Proto.Types.group_id -> persistent:bool -> streams:int -> t

val log : t -> State_log.t option
(** The log of a single-stream copy. *)

val holds_state : t -> bool
(** The copy holds state: its streams have logs. *)

val reset_filters : t -> unit
(** Forget every origin tag (the copy was overwritten from elsewhere). *)

val drop : t -> Server_storage.t -> unit
(** Delete the group's durable state: every stream's checkpoint and WAL. *)

val open_log :
  Server_storage.t ->
  durable:bool ->
  batching:Storage.Wal.batch_config option ->
  policy:State_log.reduction_policy ->
  name:string ->
  persistent:bool ->
  at_seqno:int ->
  initial:(Proto.Types.object_id * string) list ->
  State_log.t
(** A fresh log named [name] over the server's storage: its WAL (an
    ephemeral one unless [durable]), its checkpoint store and the reduction
    [policy]. *)

(** {1 Updates} *)

val check_update :
  Access_control.t ->
  group:Proto.Types.group_id ->
  sender:Proto.Types.member_id ->
  'g option ->
  ('g -> Proto.Types.member_id -> Proto.Types.role option) ->
  ('g, string) result
(** Admission of an update from [sender] to [group], found here as the
    given ['g] (a copy, or a directory entry) whose roles [role_of] reads:
    the access policy's [can_update], then the group's existence, then the
    sender's membership and role (observers may not update). [Ok] returns
    the group. *)

val deliver :
  t ->
  Frontend.t ->
  Proto.Types.delivery_mode ->
  Proto.Types.update ->
  Proto.Message.response ->
  unit
(** Deliver a sequenced update to the local members (the multicast-channel
    ones by one transmission), minus its sender when the mode excludes
    it. *)

val apply :
  t ->
  Frontend.t ->
  stream:int ->
  origin:string ->
  og_seq:int ->
  Proto.Types.delivery_mode ->
  Proto.Types.update ->
  bool
(** Apply an update sequenced on [stream] elsewhere and deliver it, unless
    the origin filter has seen [origin]'s [og_seq] on that stream (an
    update re-sequenced after a failover). An empty [origin] marks a
    gap-repair update, which bypasses the filter. Logs it when the stream
    has a log. A multi-stream copy delivers [Shard_deliver]. [true] if
    applied. *)

(** {1 Joins} *)

(** What a joining client asked for. *)
type joiner = {
  j_conn : Net.Tcp.conn;
  j_member : Proto.Types.member_id;
  j_role : Proto.Types.role;
  j_notify : bool;
  j_transfer : Proto.Types.transfer_spec;
}

val admit :
  t ->
  Frontend.t ->
  joiner ->
  members:Proto.Types.member list option ->
  multicast:bool ->
  chunk:int option ->
  Transfer.prepared ->
  unit
(** Complete a join: enter the joiner into the local membership with its
    role and notification choice, file it on the multicast channel or not,
    and send [Join_accepted] carrying [members] (default: the local
    membership, joiner included) and the prepared state, paced in [chunk]
    byte frames when given. *)

(** {1 Locks} *)

type lock_outcome = [ `Granted | `Busy of Proto.Types.member_id | `Released | `Error of string ]

val request_lock :
  Locks.t ->
  acquire:bool ->
  lock:Proto.Types.lock_id ->
  member:Proto.Types.member_id ->
  lock_outcome * Proto.Types.member_id option
(** Acquire or release [lock] for [member]: the requester's outcome, and
    the queued member a release hands the lock to. *)

val lock_reply :
  Frontend.t ->
  Net.Tcp.conn ->
  group:Proto.Types.group_id ->
  lock:Proto.Types.lock_id ->
  lock_outcome ->
  unit
(** Answer the requester. *)
