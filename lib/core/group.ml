(* The per-group engine shared by the single server, replicated copies and
   shard streams. The roles decide *when* a rule runs (a server at request
   time, a replica when the coordinator or a barrier says so); this module
   owns *what* the rule does to the group. *)

module T = Proto.Types
module M = Proto.Message

type t = {
  id : T.group_id;
  mutable persistent : bool;
  mutable logs : State_log.t array;
  members : Membership.t;
  mcast : (T.member_id, unit) Hashtbl.t;
  last_og : (string, int) Hashtbl.t array;
}

let create id ~persistent ~streams =
  {
    id;
    persistent;
    logs = [||];
    members = Membership.create ();
    mcast = Hashtbl.create 8;
    last_og = Array.init streams (fun _ -> Hashtbl.create 8);
  }

let log g = if Array.length g.logs = 1 then Some g.logs.(0) else None

let holds_state g = Array.length g.logs > 0

let reset_filters g = Array.iter Hashtbl.reset g.last_og

let drop g storage =
  Array.iter (fun log -> Server_storage.drop_group storage (State_log.group log)) g.logs;
  Server_storage.drop_group storage g.id

let open_log storage ~durable ~batching ~policy ~name ~persistent ~at_seqno ~initial =
  let wal =
    if durable then Server_storage.wal_for storage ?batching name
    else Storage.Wal.create_ephemeral ~name
  in
  State_log.create ~group:name ~persistent ~wal
    ~checkpoints:(Server_storage.checkpoints storage)
    ~policy ~at_seqno ~initial ()

(* --- updates -------------------------------------------------------------- *)

let check_update (access : Access_control.t) ~group ~sender found role_of =
  match access.can_update sender group with
  | Access_control.Deny reason -> Error reason
  | Access_control.Allow -> (
      match found with
      | None -> Error "no such group"
      | Some g -> (
          match role_of g sender with
          | None -> Error "sender is not a member"
          | Some T.Observer -> Error "observers may not update shared state"
          | Some T.Principal -> Ok g))

let deliver g fe mode (u : T.update) response =
  match mode with
  | T.Sender_exclusive ->
      Frontend.deliver fe ~group:g.id ~exclude:u.sender ~mcast:g.mcast g.members response
  | T.Sender_inclusive -> Frontend.deliver fe ~group:g.id ~mcast:g.mcast g.members response

let no_durable_hook (_ : T.update) = ()

let apply g fe ~stream ~origin ~og_seq mode (u : T.update) =
  (* Called for every seqno of the stream, duplicates (re-sequenced after a
     failover) included, so the caller's hold-back stays contiguous; a
     duplicate is neither logged nor delivered. *)
  let last_og = g.last_og.(stream) in
  let duplicate =
    origin <> ""
    &&
    match Hashtbl.find_opt last_og origin with
    | Some last -> og_seq <= last
    | None -> false
  in
  if origin <> "" then Hashtbl.replace last_og origin og_seq;
  if not duplicate then begin
    if stream < Array.length g.logs then
      State_log.apply_sequenced g.logs.(stream) u ~on_durable:no_durable_hook;
    deliver g fe mode u
      (if Array.length g.last_og > 1 then M.Shard_deliver { shard = stream; update = u }
       else M.Deliver u)
  end;
  not duplicate
[@@corona.hot]

(* --- joins ---------------------------------------------------------------- *)

type joiner = {
  j_conn : Net.Tcp.conn;
  j_member : T.member_id;
  j_role : T.role;
  j_notify : bool;
  j_transfer : T.transfer_spec;
}

let admit g fe j ~members ~multicast ~chunk p =
  Membership.add g.members ~member:j.j_member ~role:j.j_role ~notify:j.j_notify
    ~joined_at:(Frontend.now fe);
  if multicast then Hashtbl.replace g.mcast j.j_member ()
  else Hashtbl.remove g.mcast j.j_member;
  let members =
    match members with Some ms -> ms | None -> Membership.members g.members
  in
  Frontend.accept_join fe j.j_conn ~group:g.id ~members ~multicast ?chunk ?log:(log g) p

(* --- locks ---------------------------------------------------------------- *)

type lock_outcome = [ `Granted | `Busy of T.member_id | `Released | `Error of string ]

let request_lock locks ~acquire ~lock ~member =
  if acquire then ((Locks.acquire locks ~lock ~member :> lock_outcome), None)
  else
    match Locks.release locks ~lock ~member with
    | `Not_holder -> (`Error "not the lock holder", None)
    | `Released next -> (`Released, next)

let lock_reply fe conn ~group ~lock (outcome : lock_outcome) =
  match outcome with
  | `Granted -> Frontend.reply fe conn (M.Lock_granted { group; lock })
  | `Busy holder -> Frontend.reply fe conn (M.Lock_busy { group; lock; holder })
  | `Released -> Frontend.reply fe conn (M.Lock_released { group; lock })
  | `Error reason -> Frontend.fail fe conn group reason
