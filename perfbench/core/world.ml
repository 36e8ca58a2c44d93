(* The deployments the benchmark measures, built only through the public
   interfaces of Net, Corona and Replication, and the counter snapshots the
   per-layer metrics are derived from. *)

module T = Proto.Types

type deployment =
  | Single of { server : Corona.Server.t; storage : Corona.Server_storage.t }
  | Cluster of Replication.Cluster.t
  | Relayed of { server : Corona.Server.t; relays : Corona.Relay.t array }

type t = {
  engine : Sim.Engine.t;
  fabric : Net.Fabric.t;
  deployment : deployment;
  server_host : Net.Host.t;  (** the single server, relay root, or coordinator *)
  client_hosts : Net.Host.t array;
  groups : T.group_id array;
  member_group : int array;  (** group index of static member [i] *)
  entry_for : int -> Net.Host.t;  (** where static member [i] connects *)
  mutable members : Corona.Client.t array;  (** static members; slot = index *)
}

(* The paper's 10 Mbps switched LAN, optionally with up to 0.8 ms of
   per-packet jitter (which takes the fabric off its batched fast path). *)
let lan ~jitter = if jitter then { Net.Fabric.lan with jitter = 0.8e-3 } else Net.Fabric.lan

let client_machines fabric n =
  Array.init n (fun i ->
      Net.Fabric.add_host fabric ~name:(Printf.sprintf "cm-%d" i) ~cpu:Net.Host.sparc20 ())

(* Step the engine until [cond] holds; the deployment is broken if the
   event queue runs dry or an hour of virtual time passes first. *)
let run_until engine ~what cond =
  let limit = Sim.Engine.now engine +. 3600.0 in
  while not (cond ()) do
    if Sim.Engine.now engine > limit || not (Sim.Engine.step engine) then
      Ops.violation "set-up stalled: %s" what
  done

let single_server engine ~config ~machines ~jitter =
  let fabric = Net.Fabric.create ~config:(lan ~jitter) engine in
  let host = Net.Fabric.add_host fabric ~name:"server" ~cpu:Net.Host.ultrasparc () in
  let storage = Corona.Server_storage.create host () in
  let server = Corona.Server.create fabric host ~config ~storage () in
  (fabric, host, storage, server, client_machines fabric machines)

(* A single server; every member connects to it directly. *)
let single engine ~config ~machines ~jitter ~groups ~member_group =
  let fabric, host, storage, server, client_hosts =
    single_server engine ~config ~machines ~jitter
  in
  {
    engine;
    fabric;
    deployment = Single { server; storage };
    server_host = host;
    client_hosts;
    groups;
    member_group;
    entry_for = (fun _ -> host);
    members = [||];
  }

(* A coordinator ("srv-0") and [replicas] replicas; members are assigned to
   replicas round-robin, so one group's members sit on several replicas. *)
let cluster engine ~config ~replicas ~machines ~groups ~member_group =
  let fabric = Net.Fabric.create ~config:(lan ~jitter:false) engine in
  let cluster = Replication.Cluster.create fabric ~config ~replicas () in
  let client_hosts = client_machines fabric machines in
  {
    engine;
    fabric;
    deployment = Cluster cluster;
    server_host = Replication.Node.host (Replication.Cluster.coordinator cluster);
    client_hosts;
    groups;
    member_group;
    entry_for = (fun i -> Replication.Node.host (Replication.Cluster.replica_for cluster i));
    members = [||];
  }

(* A root server fronted by [relays] edge relays; member [i] connects to the
   relay owning its slice of the membership. *)
let relayed engine ~config ~relays ~machines ~groups ~member_group =
  let fabric, host, _, server, client_hosts =
    single_server engine ~config ~machines ~jitter:false
  in
  let ready = ref 0 in
  let relay_hosts =
    Array.init relays (fun i ->
        Net.Fabric.add_host fabric ~name:(Printf.sprintf "relay-%d" i) ())
  in
  let relay_nodes =
    Array.map
      (fun h ->
        let name = Net.Host.name h in
        Corona.Relay.create fabric h ~relay:name ~root:host
          ~on_ready:(fun _ -> incr ready)
          ~on_failed:(fun () -> Ops.violation "%s: root unreachable" name)
          ())
      relay_hosts
  in
  run_until engine ~what:"relay registration" (fun () -> !ready = relays);
  let members = Array.length member_group in
  {
    engine;
    fabric;
    deployment = Relayed { server; relays = relay_nodes };
    server_host = host;
    client_hosts;
    groups;
    member_group;
    entry_for =
      (fun i -> relay_hosts.(Corona.Membership.slice_owner ~relays ~members i));
    members = [||];
  }

(* Connect every static member, create each group from its first member,
   then join all members. Connects and joins are paced [stagger] seconds
   apart, so set-up never overloads the service (a join storm would trip
   the replicated service's failure detector). [on_event slot] is member
   [slot]'s event handler. *)
let populate w ~persistent ~initial ~notify ~stagger ~on_event =
  let n = Array.length w.member_group in
  let live = Array.make n None in
  let connected = ref 0 in
  let paced i f = ignore (Sim.Engine.schedule w.engine ~delay:(stagger *. float_of_int i) f) in
  for i = 0 to n - 1 do
    paced i @@ fun () ->
    Corona.Client.connect w.fabric
      ~host:w.client_hosts.(i mod Array.length w.client_hosts)
      ~server:(w.entry_for i) ~member:(Printf.sprintf "m%d" i) ~on_event:(on_event i)
      ~on_connected:(fun c ->
        live.(i) <- Some c;
        incr connected)
      ~on_failed:(fun () -> Ops.violation "member %d failed to connect" i)
      ()
  done;
  run_until w.engine ~what:"connect" (fun () -> !connected = n);
  w.members <- Array.map Option.get live;
  let first_of = Array.make (Array.length w.groups) (-1) in
  Array.iteri (fun i g -> if first_of.(g) < 0 then first_of.(g) <- i) w.member_group;
  let created = ref 0 in
  Array.iteri
    (fun g m ->
      Corona.Client.create_group w.members.(m) ~group:w.groups.(g) ~persistent ~initial
        ~k:(function
          | Corona.Client.R_ok -> incr created
          | _ -> Ops.violation "group %s not created" w.groups.(g))
        ())
    first_of;
  run_until w.engine ~what:"create groups" (fun () -> !created = Array.length w.groups);
  let joined = ref 0 in
  Array.iteri
    (fun i c ->
      paced i @@ fun () ->
      Corona.Client.join c ~group:w.groups.(w.member_group.(i)) ~transfer:T.Full_state ~notify
        ~k:(function
          | Corona.Client.R_join _ -> incr joined
          | _ -> Ops.violation "member %d: join refused" i)
        ())
    w.members;
  run_until w.engine ~what:"join" (fun () -> !joined = n)

(* Copies of group [g]'s state held by the service. *)
let service_copies w g =
  let group = w.groups.(g) in
  match w.deployment with
  | Single { server; _ } | Relayed { server; _ } ->
      Option.to_list (Corona.Server.group_state server group)
  | Cluster c ->
      List.filter_map
        (fun n -> Replication.Node.group_state n group)
        (Replication.Cluster.live_nodes c)

(* --- counter snapshots ------------------------------------------------- *)

type counters = {
  at : float;  (** virtual time of the snapshot *)
  events : int;
  packets : int;
  bytes : int;
  batches : int;
  encodes : int;
  requests : int;
  deliveries_sent : int;  (** server- or node-side member deliveries *)
  responses : int;
  bytes_delivered : int;
  transfer_bytes : int;
  root_frames : int;
  cache_hits : int;
  cache_misses : int;
  forwarded : int;
  applied : int;
  elections : int;
  relay_fanouts : int;
  relay_deliveries : int;
  relay_proxied : int;
  wal_writes : int;
  wal_records : int;
  disk_bytes : int;
  server_cpu : float;  (** server, root, or coordinator CPU seconds *)
  client_cpu : float array;  (** per client machine *)
  tier_cpu : float array;  (** per relay or per replica *)
}

let sum f xs = Array.fold_left (fun acc x -> acc + f x) 0 xs

let snapshot w ~wal =
  let server_stats s = Corona.Server.stats s in
  let base =
    {
      at = Sim.Engine.now w.engine;
      events = Sim.Engine.events_fired w.engine;
      packets = Net.Fabric.packets_sent w.fabric;
      bytes = Net.Fabric.bytes_sent w.fabric;
      batches = Net.Fabric.batches_sent w.fabric;
      encodes = Proto.Message.encode_count ();
      requests = 0;
      deliveries_sent = 0;
      responses = 0;
      bytes_delivered = 0;
      transfer_bytes = 0;
      root_frames = 0;
      cache_hits = 0;
      cache_misses = 0;
      forwarded = 0;
      applied = 0;
      elections = 0;
      relay_fanouts = 0;
      relay_deliveries = 0;
      relay_proxied = 0;
      wal_writes = 0;
      wal_records = 0;
      disk_bytes = 0;
      server_cpu = Net.Host.cpu_seconds_used w.server_host;
      client_cpu = Array.map Net.Host.cpu_seconds_used w.client_hosts;
      tier_cpu = [||];
    }
  in
  let with_server base s =
    let st = server_stats s in
    let hits, misses = Corona.Server.transfer_cache_stats s in
    {
      base with
      requests = st.requests_handled;
      deliveries_sent = st.deliveries_sent;
      responses = st.responses_sent;
      bytes_delivered = st.bytes_delivered;
      transfer_bytes = st.state_transfer_bytes;
      root_frames = Corona.Relay_hub.frames_sent (Corona.Server.relay_hub s);
      cache_hits = hits;
      cache_misses = misses;
    }
  in
  match w.deployment with
  | Single { server; storage } ->
      let c = with_server base server in
      let wal_writes, wal_records =
        match wal with
        | None -> (0, 0)
        | Some g ->
            let cs = Storage.Wal.commit_stats (Corona.Server_storage.wal_for storage g) in
            (cs.physical_writes, cs.records_committed)
      in
      {
        c with
        wal_writes;
        wal_records;
        disk_bytes = Storage.Disk.bytes_written (Corona.Server_storage.disk storage);
      }
  | Relayed { server; relays } ->
      let c = with_server base server in
      let rs = Array.map Corona.Relay.stats relays in
      {
        c with
        relay_fanouts = sum (fun (s : Corona.Relay.stats) -> s.fanouts_received) rs;
        relay_deliveries = sum (fun (s : Corona.Relay.stats) -> s.deliveries_sent) rs;
        relay_proxied = sum (fun (s : Corona.Relay.stats) -> s.proxied_up + s.proxied_down) rs;
        tier_cpu = Array.map (fun r -> Net.Host.cpu_seconds_used (Corona.Relay.host r)) relays;
      }
  | Cluster cl ->
      let nodes = Array.of_list (Replication.Cluster.nodes cl) in
      let st = Array.map Replication.Node.stats nodes in
      let caches = Array.map Replication.Node.transfer_cache_stats nodes in
      let replicas =
        List.filter
          (fun n -> Replication.Node.role n = Replication.Node.Replica)
          (Replication.Cluster.nodes cl)
      in
      {
        base with
        deliveries_sent = sum (fun (s : Replication.Node.stats) -> s.deliveries_sent) st;
        cache_hits = sum fst caches;
        cache_misses = sum snd caches;
        forwarded = sum (fun (s : Replication.Node.stats) -> s.fwd_bcasts) st;
        applied = sum (fun (s : Replication.Node.stats) -> s.applied) st;
        elections = sum (fun (s : Replication.Node.stats) -> s.elections_started) st;
        tier_cpu =
          Array.of_list
            (List.map (fun n -> Net.Host.cpu_seconds_used (Replication.Node.host n)) replicas);
      }
