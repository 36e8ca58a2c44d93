(* One repetition of a workload: generate the seeded open-loop schedule,
   build the deployment, run the steady, overload and drain phases, check
   the results, and derive every metric.

   Each workload offers Poisson arrivals on the virtual clock: a steady
   phase at half the deployment's capacity (the latency figures), an
   overload phase at 1.5x capacity (the goodput figure), then a full drain.
   Every op is timed from its due time, so a stall also delays the ops
   queued behind it. The capacities were measured on the commit that
   introduced this benchmark (overload offered at 3x, goodput read off) and
   are kept as constants, so every later change is measured at the same
   offered load.

   Known hazard, entered by no workload: at about 2x its capacity the
   replicated service's failure detector starts spurious elections (1-18 per
   run) and 0-45% of broadcasts never reach their whole group, depending on
   the seed. [replicated] overloads at 1.5x and checks for zero elections. *)

module T = Proto.Types

type kind = Fanout | Stateful | Replicated | Relay

type spec = {
  kind : kind;
  name : string;
  why : string;
  capacity : float;  (** ops/s at saturation, measured on the parent commit *)
  steady_s : float;  (** virtual seconds at 0.5x capacity *)
  overload_s : float;  (** virtual seconds of one burst at 1.5x capacity *)
  bursts : int;  (** overload bursts; a recovery follows each but the last *)
  recover_s : float;  (** virtual seconds at 0.5x capacity between bursts *)
  payload : int;  (** bytes per broadcast *)
}

let specs =
  [
    {
      kind = Fanout;
      name = "fanout";
      why =
        "Fig. 3's path: one server fans 1 KB updates out to a 1000-member group over 10 Mbps; \
         batched TCP fan-out does the work";
      capacity = 1.19;
      steady_s = 20000.0;
      overload_s = 120.0;
      bursts = 1;
      recover_s = 0.0;
      payload = 1000;
    };
    {
      kind = Stateful;
      name = "stateful";
      why =
        "Full-state joins beside durable 2 KB writes: transfer, snapshot cache, membership \
         notification, WAL and disk work here";
      capacity = 6.0;
      steady_s = 6000.0;
      overload_s = 6.0;
      bursts = 8;
      recover_s = 60.0;
      payload = 2000;
    };
    {
      kind = Replicated;
      name = "replicated";
      why =
        "Coordinator plus 6 replicas, 250 groups of 8, 64 B updates: per-message forwarding and \
         sequencing cost";
      capacity = 520.0;
      steady_s = 60.0;
      overload_s = 4.0;
      bursts = 1;
      recover_s = 0.0;
      payload = 64;
    };
    {
      kind = Relay;
      name = "relay";
      why =
        "Fan-out traffic through 8 relays to 2000 lean-join members: Relay_hub frames and relay \
         re-fan";
      capacity = 4.73;
      steady_s = 1800.0;
      overload_s = 40.0;
      bursts = 1;
      recover_s = 0.0;
      payload = 1000;
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) specs

(* --- deployment shapes ---------------------------------------------------- *)

let fanout_members = 1000

let writers = 8

let stateful_residents = 64

let stateful_objects = 20

let replicated_groups = 250

let group_size = 8

let relay_members = 2000

let relay_count = 8

(* Share of stateful ops that are visitor joins (2 joins per write). *)
let join_share = 2.0 /. 3.0

let stay_lo = 15.0

let stay_hi = 25.0

let drain_max_s = 600.0

(* Slices of the steady phase timed separately on the host clock. *)
let host_slices = 20

(* Host-speed probe: a fixed kernel of strided reads and writes over an
   8 MB array (cache-missing, like the simulator's pointer chasing) that
   also allocates short-lived blocks into a small ring (minor-heap churn
   with some promotion, like the simulator's events). Its CPU time tracks
   how much other processes on the machine are slowing this one down. *)
let probe_words = 1 lsl 20

let probe_iters = 100_000

(* CPU seconds of one probe on an unloaded machine. *)
let probe_seconds = 3.0e-3

let speed_probe (a, ring) =
  let c = (Sys.time () [@corona.allow "R1"]) in
  let acc = ref 0 in
  let mask = Array.length a - 1 in
  for i = 0 to probe_iters - 1 do
    let j = i * 7919 land mask in
    acc := !acc + a.(j);
    a.(j) <- !acc land 0xff;
    ring.(i land (Array.length ring - 1)) <- (i, !acc)
  done;
  ignore (Sys.opaque_identity !acc);
  (Sys.time () [@corona.allow "R1"]) -. c

(* --- the generator -------------------------------------------------------- *)

type schedule = {
  at : float array;  (** due time, virtual seconds after measurement start *)
  op_kind : int array;
  op_group : int array;
  sender : int array;  (** static member slot issuing a broadcast *)
  obj : int array;
  stay : float array;  (** visitor dwell time, joins only *)
  steady_end : float;
  windows : (float * float) array;  (** the overload bursts, [start, stop) *)
  offered_end : float;  (** due time bound of the last op *)
}

(* [count] arrivals placed uniformly at random in [lo, hi), sorted: a
   Poisson process conditioned on its expected count. Fixing the count
   removes the run-to-run variance of the offered load itself, so the
   spread left between seeds is the service's. *)
let arrivals rng ~rate ~lo ~hi =
  let count = int_of_float (Float.round (rate *. (hi -. lo))) in
  let a = Array.init count (fun _ -> lo +. Sim.Rng.float rng (hi -. lo)) in
  Array.sort Float.compare a;
  a

let generate spec ~seed ~overload_scale =
  let rng = Sim.Rng.create (Int64.of_int ((seed * 7919) + 17)) in
  let steady_rate = 0.5 *. spec.capacity in
  let overload_rate = 1.5 *. spec.capacity *. overload_scale in
  let steady_end = spec.steady_s in
  (* Steady phase, then each burst, with a recovery between bursts. *)
  let phases = ref [ (steady_rate, 0.0, steady_end) ] and windows = ref [] in
  let t = ref steady_end in
  for k = 1 to spec.bursts do
    windows := (!t, !t +. spec.overload_s) :: !windows;
    phases := (overload_rate, !t, !t +. spec.overload_s) :: !phases;
    t := !t +. spec.overload_s;
    if k < spec.bursts then begin
      phases := (steady_rate, !t, !t +. spec.recover_s) :: !phases;
      t := !t +. spec.recover_s
    end
  done;
  let chunks = List.rev_map (fun (rate, lo, hi) -> arrivals rng ~rate ~lo ~hi) !phases in
  let at = Array.concat chunks in
  let n = Array.length at in
  let op_kind = Array.make n Ops.k_bcast in
  let op_group = Array.make n 0 in
  let sender = Array.make n 0 in
  let obj = Array.make n 0 in
  let stay = Array.make n 0.0 in
  (* Stateful ops: exactly [join_share] of each phase's ops are joins, in a
     seeded random order. *)
  let mix count =
    let a = Array.init count (fun k -> float_of_int k < join_share *. float_of_int count) in
    Sim.Rng.shuffle rng a;
    a
  in
  let joins =
    if spec.kind = Stateful then Array.concat (List.map (fun c -> mix (Array.length c)) chunks)
    else [||]
  in
  for i = 0 to n - 1 do
    match spec.kind with
    | Fanout | Relay ->
        sender.(i) <- Sim.Rng.int rng writers;
        obj.(i) <- sender.(i)
    | Replicated ->
        let g = Sim.Rng.int rng replicated_groups in
        let m = Sim.Rng.int rng group_size in
        op_group.(i) <- g;
        sender.(i) <- (g * group_size) + m;
        obj.(i) <- m
    | Stateful ->
        if joins.(i) then begin
          op_kind.(i) <- Ops.k_join;
          stay.(i) <- Sim.Rng.uniform rng ~lo:stay_lo ~hi:stay_hi
        end
        else begin
          sender.(i) <- Sim.Rng.int rng stateful_residents;
          obj.(i) <- Sim.Rng.int rng stateful_objects
        end
  done;
  {
    at;
    op_kind;
    op_group;
    sender;
    obj;
    stay;
    steady_end;
    windows = Array.of_list (List.rev !windows);
    offered_end = !t;
  }

(* --- one repetition ------------------------------------------------------- *)

(* Host-clock reads. The benchmark measures the host it runs on, on purpose. *)
let cpu_now () = (Sys.time () [@corona.allow "R1"])

let wall_now () = (Unix.gettimeofday () [@corona.allow "R1"])

let mono_ns () = Int64.to_int (Monotonic_clock.now () [@corona.allow "R1"])

type samples = {
  mutable len : int;
  pending : int array;  (** event-queue length at each due time *)
  cpu_wait : int array;  (** server (or coordinator) CPU backlog, ns *)
  disk_wait : int array;  (** server disk write backlog, ns *)
  bcast_call : int array;  (** host ns inside [Client.bcast_state] *)
  mutable bcast_calls : int;
  join_call : int array;  (** host ns inside [Client.join] *)
  mutable join_calls : int;
}

let create_samples n =
  {
    len = 0;
    pending = Array.make n 0;
    cpu_wait = Array.make n 0;
    disk_wait = Array.make n 0;
    bcast_call = Array.make n 0;
    bcast_calls = 0;
    join_call = Array.make n 0;
    join_calls = 0;
  }

type rep = {
  spec : spec;
  sched : schedule;
  ops : Ops.t;
  world : World.t;
  t0 : float;  (** virtual time the measured phases start *)
  c_start : World.counters;
  c_steady : World.counters;
  c_end : World.counters;
  cpu_s : float;  (** process CPU seconds of the measured phases *)
  host_slices : float array;  (** speed-normalised host ns per delivery, per steady slice *)
  raw_slices : float array;  (** the same, as measured *)
  minor_words : float;
  gen_late_ns : int;
  samples : samples option;
}

let group_names spec =
  match spec.kind with
  | Fanout -> [| "fan" |]
  | Relay -> [| "huge" |]
  | Stateful -> [| "doc" |]
  | Replicated -> Array.init replicated_groups (Printf.sprintf "g%03d")

let member_groups spec =
  match spec.kind with
  | Fanout -> Array.make fanout_members 0
  | Relay -> Array.make relay_members 0
  | Stateful -> Array.make stateful_residents 0
  | Replicated -> Array.init (replicated_groups * group_size) (fun i -> i / group_size)

let initial_objects spec =
  match spec.kind with
  | Stateful ->
      List.init stateful_objects (fun i ->
          (Printf.sprintf "o%d" i, String.make spec.payload (Char.chr (97 + (i mod 26)))))
  | Fanout | Relay | Replicated -> []

let build spec engine ~member_group ~groups =
  match spec.kind with
  | Fanout ->
      World.single engine ~config:Corona.Server.default_config ~machines:12 ~jitter:false
        ~groups ~member_group
  | Stateful ->
      let config =
        {
          Corona.Server.default_config with
          logging = Corona.Server.Sync_logging;
          wal_batching = Some Storage.Wal.default_batch;
        }
      in
      (* Jitter: without it a write's uncontended latency is one constant,
         and the median reads the same on every seed. *)
      World.single engine ~config ~machines:6 ~jitter:true ~groups ~member_group
  | Replicated ->
      World.cluster engine ~config:Replication.Node.default_config ~replicas:6 ~machines:12
        ~groups ~member_group
  | Relay ->
      World.relayed engine
        ~config:{ Corona.Server.default_config with lean_joins = true }
        ~relays:relay_count ~machines:12 ~groups ~member_group

let disk_of (w : World.t) =
  match w.deployment with
  | World.Single { storage; _ } -> Some (Corona.Server_storage.disk storage)
  | World.Cluster _ | World.Relayed _ -> None

(* A member's event handler: deliveries go to the op table's hook. *)
let handler ops ~slot ~gidx ~static _ (ev : Corona.Client.event) =
  match ev with
  | Corona.Client.Delivered u -> Ops.deliver ops ~slot ~gidx ~seqno:u.T.seqno ~data:u.T.data
  | Corona.Client.Disconnected _ when static -> Ops.violation "member slot %d disconnected" slot
  | _ -> ()

(* Build the deployment and join every static member. *)
let setup spec ~seed ~tracing ~sched =
  let n = Array.length sched.at in
  let groups = group_names spec in
  let member_group = member_groups spec in
  let n_members = Array.length member_group in
  let group_ops = Array.make (Array.length groups) 64 in
  Array.iteri
    (fun i k -> if k = Ops.k_bcast then group_ops.(sched.op_group.(i)) <- group_ops.(sched.op_group.(i)) + 1)
    sched.op_kind;
  let engine = Sim.Engine.create ~seed:(Int64.of_int seed) () in
  let ops = Ops.create ~tracing engine ~ops:n ~slots:(n_members + n) ~group_ops in
  let world = build spec engine ~member_group ~groups in
  World.populate world ~persistent:(spec.kind = Stateful) ~initial:(initial_objects spec)
    ~notify:(spec.kind = Stateful)
    ~stagger:(if spec.kind = Replicated then 0.002 else 0.0)
    ~on_event:(fun i -> handler ops ~slot:i ~gidx:member_group.(i) ~static:true);
  (engine, ops, world)

type setups = {
  setup_s : float;  (** median speed-normalised set-up CPU seconds *)
  setup_raw_s : float;  (** median set-up CPU seconds, as measured *)
  setup_n : int;
}

(* Set-up probe: a fixed kernel shaped like a set-up's own work rather than
   the steady phase's: hash-table inserts and lookups over 4096 int keys,
   with short-lived list cells, all in cache. Across fresh processes, the
   medians of set-ups scaled by the 8 MB speed probe spread by 0.04-0.29
   (IQR over median; worst on the 6 ms stateful set-up), and of set-ups
   scaled by this probe by 0.03-0.05. *)
let setup_probe_iters = 20_000

(* Reference CPU seconds of one set-up probe: the scale normalised set-up
   times are reported in. *)
let setup_probe_seconds = 2.5e-3

let setup_probe () =
  let c = cpu_now () in
  let h = Hashtbl.create 16 and live = ref [] in
  for i = 0 to setup_probe_iters - 1 do
    Hashtbl.replace h (i * 7919 land 0xfff) (i, i land 1023);
    (match Hashtbl.find_opt h (i * 31 land 0xfff) with
    | Some (a, _) -> live := a :: !live
    | None -> ());
    if i land 255 = 0 then live := []
  done;
  ignore (Sys.opaque_identity !live);
  cpu_now () -. c

(* Set-up alone, timed on its own before any repetition: one untimed
   warm-up, then set-ups until at least [min_n] have run and [budget_s]
   seconds are used. Each is timed in process CPU seconds (the simulation
   is single-threaded) right after a set-up probe, both on a compacted
   heap so that neither pays for the last set-up's garbage, and scaled by
   the probe's reference time over its measured time, as the steady slices
   are: the machine's speed drifts by more than the set-up bound between
   runs minutes apart, and the probe cancels most of that drift. *)
let setup_phase spec ~seed ~min_n ~budget_s =
  let sched = generate spec ~seed ~overload_scale:1.0 in
  let once () =
    Gc.compact ();
    let speed = setup_probe () in
    let c = cpu_now () in
    ignore (setup spec ~seed ~tracing:false ~sched);
    (cpu_now () -. c, speed)
  in
  ignore (once ());
  let start = wall_now () in
  let raw = ref [] and norm = ref [] in
  while List.length !raw < min_n || wall_now () -. start < budget_s do
    let s, speed = once () in
    raw := s :: !raw;
    norm := (s *. setup_probe_seconds /. speed) :: !norm
  done;
  { setup_s = Dist.median !norm; setup_raw_s = Dist.median !raw; setup_n = List.length !raw }

let run spec ~seed ~tracing ~overload_scale =
  let sched = generate spec ~seed ~overload_scale in
  let n = Array.length sched.at in
  (* Drop the previous repetition's world before building this one. *)
  Gc.compact ();
  let engine, ops, world = setup spec ~seed ~tracing ~sched in
  let groups = world.groups and member_group = world.member_group in
  let n_members = Array.length member_group in
  (* Measurement starts on a whole second of virtual time after set-up. *)
  let t0 = Float.ceil (Sim.Engine.now engine) +. 1.0 in
  Sim.Engine.run ~until:t0 engine;
  Array.iteri
    (fun i c ->
      match Corona.Client.last_seqno c groups.(member_group.(i)) with
      | Some s -> Ops.joined ops ~slot:i ~next:(s + 1)
      | None -> Ops.violation "member %d holds no replica after joining" i)
    world.members;
  let intended = match spec.kind with Replicated -> group_size | Fanout | Relay | Stateful -> n_members in
  for i = 0 to n - 1 do
    ops.kind.(i) <- sched.op_kind.(i);
    ops.gidx.(i) <- sched.op_group.(i);
    ops.due.(i) <- Ops.ns_of_time (t0 +. sched.at.(i));
    ops.intended.(i) <- (if sched.op_kind.(i) = Ops.k_bcast then intended else 1)
  done;
  let samples = if tracing then Some (create_samples n) else None in
  let disk = disk_of world in
  let late = ref 0 in
  let visitors = ref 0 in
  let machines = Array.length world.client_hosts in
  let wal = if spec.kind = Stateful then Some groups.(0) else None in
  let sample i =
    match samples with
    | None -> ()
    | Some s ->
        let now = Sim.Engine.now engine in
        s.pending.(i) <- Sim.Engine.pending engine;
        s.cpu_wait.(i) <- Ops.ns_of_time (Net.Host.cpu_busy_until world.server_host -. now);
        (match disk with
        | Some d -> s.disk_wait.(i) <- Ops.ns_of_time (Storage.Disk.busy_until d -. now)
        | None -> ());
        s.len <- i + 1
  in
  let visit i =
    let slot = n_members + i in
    ops.counted.(slot) <- false;
    Corona.Client.connect world.fabric
      ~host:world.client_hosts.(i mod machines)
      ~server:world.server_host ~member:(Printf.sprintf "v%d" i)
      ~on_event:(handler ops ~slot ~gidx:0 ~static:false)
      ~on_connected:(fun c ->
        Ops.join_connected ops i;
        let on_reply = function
          | Corona.Client.R_join _ ->
              (match Corona.Client.replica c groups.(0) with
              | Some st when Corona.Shared_state.object_count st = stateful_objects -> ()
              | _ -> Ops.violation "visitor %d: replica not populated on join" i);
              (match Corona.Client.last_seqno c groups.(0) with
              | Some s -> Ops.joined ops ~slot ~next:(s + 1)
              | None -> Ops.violation "visitor %d: no replica" i);
              Ops.join_accepted ops i;
              incr visitors;
              ignore
                (Sim.Engine.schedule engine ~delay:sched.stay.(i) (fun () ->
                     Corona.Client.leave c ~group:groups.(0) ~k:(fun _ ->
                         Corona.Client.disconnect c;
                         decr visitors)))
          | _ -> ()
        in
        match samples with
        | None -> Corona.Client.join c ~group:groups.(0) ~transfer:T.Full_state ~notify:false ~k:on_reply ()
        | Some s ->
            let c0 = mono_ns () in
            Corona.Client.join c ~group:groups.(0) ~transfer:T.Full_state ~notify:false ~k:on_reply ();
            s.join_call.(s.join_calls) <- mono_ns () - c0;
            s.join_calls <- s.join_calls + 1)
      (* A visitor that cannot connect leaves its op incomplete: failed. *)
      ~on_failed:(fun () -> ())
      ()
  in
  let bcast i =
    let c = world.members.(sched.sender.(i)) in
    let group = groups.(sched.op_group.(i)) in
    let obj = Printf.sprintf "o%d" sched.obj.(i) in
    let data = Ops.payload ~op:i ~size:spec.payload in
    match samples with
    | None -> Corona.Client.bcast_state c ~group ~obj ~data ~mode:T.Sender_inclusive ()
    | Some s ->
        let c0 = mono_ns () in
        Corona.Client.bcast_state c ~group ~obj ~data ~mode:T.Sender_inclusive ();
        s.bcast_call.(s.bcast_calls) <- mono_ns () - c0;
        s.bcast_calls <- s.bcast_calls + 1
  in
  (* The generator: one pending arrival at a time, each arming the next. *)
  let rec arm i =
    if i < n then
      ignore
        (Sim.Engine.schedule_at engine (t0 +. sched.at.(i)) (fun () ->
             late := max !late (Ops.ns_of_time (Sim.Engine.now engine) - ops.due.(i));
             sample i;
             if sched.op_kind.(i) = Ops.k_join then visit i else bcast i;
             arm (i + 1)))
  in
  let probe_state = (Array.make probe_words 0, Array.make 1024 (0, 0)) in
  let c_start = World.snapshot world ~wal in
  let minor0 = Gc.minor_words () in
  let cpu0 = cpu_now () in
  arm 0;
  (* The steady phase runs in equal slices of virtual time, each timed on
     the host clock right after a speed probe. A slice's CPU ns per
     delivery is scaled by the probe's reference time over its measured
     time: this cancels most of the slowdown other processes on a shared
     host cause, which can vary by 2x from minute to minute. *)
  let raw_slices = Array.make host_slices 0.0 in
  (* The probes' own CPU time and allocation are kept out of the totals. *)
  let probe_cpu = ref 0.0 and probe_minor = ref 0.0 in
  let host_slices =
    Array.init host_slices (fun k ->
        let m = Gc.minor_words () in
        let speed = speed_probe probe_state in
        probe_cpu := !probe_cpu +. speed;
        probe_minor := !probe_minor +. (Gc.minor_words () -. m);
        let c = cpu_now () and d = ops.deliveries in
        let stop = sched.steady_end *. float_of_int (k + 1) /. float_of_int host_slices in
        Sim.Engine.run ~until:(t0 +. stop) engine;
        raw_slices.(k) <- (cpu_now () -. c) *. 1e9 /. float_of_int (max 1 (ops.deliveries - d));
        raw_slices.(k) *. probe_seconds /. speed)
  in
  let c_steady = World.snapshot world ~wal in
  Sim.Engine.run ~until:(t0 +. sched.offered_end) engine;
  let deadline = t0 +. sched.offered_end +. drain_max_s in
  while
    (ops.completed < n || !visitors > 0) && Sim.Engine.now engine < deadline
  do
    Sim.Engine.run ~until:(Sim.Engine.now engine +. 0.25) engine
  done;
  let cpu_s = cpu_now () -. cpu0 -. !probe_cpu in
  let minor_words = Gc.minor_words () -. minor0 -. !probe_minor in
  let c_end = World.snapshot world ~wal in
  {
    spec;
    sched;
    ops;
    world;
    t0;
    c_start;
    c_steady;
    c_end;
    cpu_s;
    host_slices;
    raw_slices;
    minor_words;
    gen_late_ns = !late;
    samples;
  }
