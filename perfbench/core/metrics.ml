(* Correctness checks and metric derivation for one repetition.

   End-to-end metrics come from untraced repetitions; per-layer metrics from
   traced ones. Each per-layer metric below names the end-to-end metric it
   should move, and on which workload:

   sim
     sim.events_per_delivery, sim.host_ns_per_event -> host_ns_per_delivery
       (fanout, relay)
     sim.pending_p99 -> heap_peak_mb (overload, every workload)
   net
     net.bytes_per_delivery, net.packets_per_delivery, net.server_nic_util
       -> bcast_p99_ms, goodput_ops_s (fanout, stateful)
     net.batches_per_bcast -> host_ns_per_delivery (fanout)
     net.server_cpu_util, net.server_cpu_wait_p99_ms -> bcast_p99_ms (stateful)
     net.client_cpu_util_max -> none; shows the clients are not the bottleneck
   proto
     proto.encodes_per_op -> host_ns_per_delivery (replicated, stateful)
     proto.encode_deliver_ns, proto.decode_deliver_ns,
     proto.encode_join_state_ns -> host_ns_per_delivery,
       minor_words_per_delivery (replicated, stateful)
   core
     core.deliveries_per_bcast, core.requests_per_op -> host_ns_per_delivery
     core.responses_per_op -> join_p99_ms, bcast_p99_ms (stateful)
     core.transfer_cache_hit_ratio, core.transfer_bytes_per_join
       -> join_p99_ms (stateful)
     core.stale_deliveries -> none; counts a known defect (Ops.stale) that
       a fix should bring to 0 (stateful)
     core.bcast_call_ns, core.join_call_ns -> host_ns_per_delivery
       (replicated, stateful)
     bcast.first_member_p50_ms, bcast.first_member_p99_ms -> bcast_p50_ms,
       bcast_p99_ms (replicated, stateful: request, sequencing, durability)
     bcast.spread_p50_ms, bcast.spread_p99_ms -> bcast_p50_ms, bcast_p99_ms
       (fanout, relay: the fan-out leg)
     join.connect_p99_ms, join.transfer_p99_ms -> join_p99_ms (stateful)
   relay
     relay.frames_per_bcast, relay.deliveries_per_frame,
     relay.proxied_per_op, relay.cpu_util_max -> bcast_p99_ms,
       goodput_ops_s (relay)
   replication
     replication.fwd_per_bcast, replication.applied_per_bcast,
     replication.coord_cpu_util, replication.coord_cpu_wait_p99_ms,
     replication.replica_cpu_util_max -> bcast_p99_ms, goodput_ops_s
       (replicated)
     replication.elections -> failed_frac (replicated)
   storage
     storage.records_per_write, storage.bytes_per_write,
     storage.disk_wait_p99_ms -> bcast_p99_ms (stateful)
   workload
     workload.gen_late_ms_max (must be 0), trace.overhead_frac (reported)

   Layers not measurable from outside yet: ordering (the holdback queues
   inside Client and Node), Codec internals, and Multicast, which no
   workload uses. They wait for spans inside the library. *)

open Bench

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* --- checks ---------------------------------------------------------------- *)

let check r =
  let ops = r.ops in
  let w = r.world in
  if r.gen_late_ns <> 0 then Ops.violation "generator ran %d ns late" r.gen_late_ns;
  (* Counted from the deployment's creation: set-up must not elect either. *)
  if r.c_end.elections <> 0 then Ops.violation "%d elections" r.c_end.elections;
  (* Every surviving member replica equals every copy the service holds. *)
  Array.iteri
    (fun i c ->
      let g = w.member_group.(i) in
      match Corona.Client.replica c w.groups.(g) with
      | None -> Ops.violation "member %d lost its replica" i
      | Some st ->
          let d = Corona.Shared_state.digest st in
          let copies = World.service_copies w g in
          if copies = [] then Ops.violation "group %s: no service copy" w.groups.(g);
          List.iter
            (fun s ->
              if Corona.Shared_state.digest s <> d then
                Ops.violation "member %d: replica digest differs from the service's copy" i)
            copies)
    w.members;
  let bcasts = Array.fold_left (fun acc k -> if k = Ops.k_bcast then acc + 1 else acc) 0 ops.kind in
  (match r.spec.kind with
  | Fanout ->
      (* One request encode at the writer plus one fan-out encode at the
         server, per broadcast, and nothing else. *)
      let encodes = r.c_end.encodes - r.c_start.encodes in
      if encodes <> 2 * bcasts then
        Ops.violation "fanout: %d encodes for %d broadcasts (want one fan-out encode each)" encodes
          bcasts
  | Relay ->
      let frames = r.c_end.root_frames - r.c_start.root_frames in
      if frames > relay_count * bcasts then
        Ops.violation "relay: %d root frames for %d broadcasts exceeds %d relays" frames bcasts
          relay_count
  | Stateful | Replicated -> ());
  if ops.tracing then begin
    let checked = Ops.check_closure ops in
    if checked <> ops.completed then
      Ops.violation "spans close on %d ops, %d completed" checked ops.completed
  end

(* --- end-to-end ------------------------------------------------------------- *)

let n_ops r = Ops.length r.ops

let failed r = n_ops r - r.ops.completed

(* End-to-end latencies of completed [kind] ops due in the steady phase. *)
let steady_latencies r kind =
  let ops = r.ops in
  let stop = Ops.ns_of_time (r.t0 +. r.sched.steady_end) in
  let out = ref [] in
  for i = 0 to n_ops r - 1 do
    if ops.kind.(i) = kind && ops.due.(i) < stop && ops.fin.(i) >= 0 then
      out := (ops.fin.(i) - ops.due.(i)) :: !out
  done;
  Dist.sorted_copy (Array.of_list !out)

(* Ops completed inside the overload bursts, per second of burst. *)
let goodput r =
  let ns t = Ops.ns_of_time (r.t0 +. t) in
  let done_, span =
    Array.fold_left
      (fun (d, s) (lo, hi) ->
        (d + Dist.completed_within ~fin:r.ops.fin ~start:(ns lo) ~stop:(ns hi), s + (ns hi - ns lo)))
      (0, 0) r.sched.windows
  in
  float_of_int done_ /. (float_of_int span /. 1e9)

(* Host ns per member delivery in the steady phase: the median over the
   steady slices of every given repetition. *)
let host_ns_per_delivery slices = Dist.median (List.concat_map Array.to_list slices)

let minor_words_per_delivery r = r.minor_words /. float_of_int (max 1 r.ops.deliveries)

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Virtual-clock results of a repetition: equal across repetitions of one
   seed, traced or not, or the simulation is not deterministic. *)
let fingerprint r = (r.ops.fin, r.ops.first, r.ops.deliveries, r.c_end.events)

type latency = { p50_ms : float; tail : Dist.tail }

let latency sorted = { p50_ms = Dist.ms_of_ns (Dist.percentile sorted 50.0); tail = Dist.tail sorted }

(* What the end-to-end metrics need from the first untraced repetition,
   kept so its deployment can be dropped before the next one is built. *)
type virtual_figures = {
  bcast : latency;
  join : latency;
  goodput_ops_s : float;
  minor_words : float;
  attempted : int;
  failed : int;
  stale : int;
}

let virtual_figures r =
  {
    bcast = latency (steady_latencies r Ops.k_bcast);
    join = latency (steady_latencies r Ops.k_join);
    goodput_ops_s = goodput r;
    minor_words = minor_words_per_delivery r;
    attempted = n_ops r;
    failed = failed r;
    stale = r.ops.stale;
  }

(* The end-to-end metrics, then the ones only the human-readable table
   shows: joins exist in [stateful] alone, and failures travel as
   [attempted] and [failed]. *)
let end_to_end v ~host_ns ~setup_s =
  ( [
      m "bcast_p50_ms" "ms" v.bcast.p50_ms;
      m "bcast_p99_ms" "ms" (Dist.ms_of_ns v.bcast.tail.value);
      m "goodput_ops_s" "1/s" v.goodput_ops_s;
      m "host_ns_per_delivery" "ns" host_ns;
      m "minor_words_per_delivery" "words" v.minor_words;
      m "heap_peak_mb" "MB" (heap_peak_mb ());
      m "setup_s" "s" setup_s;
    ],
    (if v.join.tail.n > 0 then
       [
         m "join_p50_ms" "ms" v.join.p50_ms;
         m "join_p99_ms" "ms" (Dist.ms_of_ns v.join.tail.value);
       ]
     else [])
    @ [ m "failed_frac" "frac" (ratio v.failed v.attempted) ] )

(* --- per layer ------------------------------------------------------------- *)

(* Median host ns per call of [f], over batches of [iters] calls. *)
let time_call ~iters f =
  let batch () =
    let c0 = Bench.mono_ns () in
    for _ = 1 to iters do
      ignore (Sys.opaque_identity (f ()))
    done;
    float_of_int (Bench.mono_ns () - c0) /. float_of_int iters
  in
  ignore (batch ());
  Dist.median (List.init 9 (fun _ -> batch ()))

(* Codec cost on this workload's own message shapes. *)
let codec_times r =
  let w = r.world in
  let group = w.groups.(0) in
  let u =
    {
      T.seqno = 1;
      group;
      kind = T.Set_state;
      obj = "o0";
      data = Ops.payload ~op:0 ~size:r.spec.payload;
      sender = "m0";
      timestamp = 1.0;
    }
  in
  let msg = Proto.Message.Response (Proto.Message.Deliver u) in
  let body = Proto.Message.encoded_bytes (Proto.Message.pre_encode msg) in
  let objects =
    match World.service_copies w 0 with
    (* One materialize per traced repetition, to shape the timed snapshot. *)
    | s :: _ -> (Corona.Shared_state.objects s [@corona.allow "R7"])
    | [] -> []
  in
  let snapshot = Proto.Message.Snapshot { objects; log_tail = [] } in
  let enc = time_call ~iters:200 (fun () -> Proto.Message.pre_encode msg) in
  let dec =
    time_call ~iters:200 (fun () -> Proto.Message.decode (Proto.Codec.Reader.of_string body))
  in
  let js = time_call ~iters:50 (fun () -> Proto.Message.encode_join_state snapshot) in
  (enc, dec, js)

let util ~busy ~span ~workers = if span <= 0.0 then 0.0 else busy /. (span *. float_of_int workers)

let max_util a0 a1 ~span ~workers =
  let best = ref 0.0 in
  Array.iteri (fun i b -> best := Float.max !best (util ~busy:(b -. a0.(i)) ~span ~workers)) a1;
  !best

let tail_ms a ~len = Dist.ms_of_ns (Dist.tail (Dist.sorted_copy (Array.sub a 0 len))).value

let sample_median a len = Dist.median (List.init len (fun i -> float_of_int a.(i)))

(* The per-layer figures of a traced repetition, but for
   [trace_overhead], which needs every repetition's host time. *)
let per_layer r =
  let s = match r.samples with Some s -> s | None -> invalid_arg "per_layer: untraced" in
  let ops = r.ops in
  let c0 = r.c_start and c1 = r.c_steady and c2 = r.c_end in
  let d f = f c2 - f c0 in
  let n = n_ops r in
  let bcasts = Array.fold_left (fun acc k -> if k = Ops.k_bcast then acc + 1 else acc) 0 ops.kind in
  let joins = n - bcasts in
  let deliveries = ops.deliveries in
  let steady_span = c1.at -. c0.at in
  let workers h = (Net.Host.cpu h).Net.Host.workers in
  let server = r.world.server_host in
  let leg leg p =
    let steady_stop = Ops.ns_of_time (r.t0 +. r.sched.steady_end) in
    let a = Dist.sorted_copy (Ops.leg_samples ops ~leg ~keep:(fun op -> ops.due.(op) < steady_stop)) in
    if Array.length a = 0 then 0.0
    else if p = 50.0 then Dist.ms_of_ns (Dist.percentile a 50.0)
    else Dist.ms_of_ns (Dist.tail a).value
  in
  let enc, dec, js = codec_times r in
  let nic_bytes = c1.bytes_delivered - c0.bytes_delivered + (c1.transfer_bytes - c0.transfer_bytes) in
  let tier_workers =
    match r.world.deployment with
    | World.Relayed { relays; _ } when Array.length relays > 0 -> workers (Corona.Relay.host relays.(0))
    | _ -> workers server
  in
  let cpu_wait = tail_ms s.cpu_wait ~len:s.len in
  let replicated = r.spec.kind = Replicated in
  [
    m "sim.events_per_delivery" "count" (ratio (d (fun c -> c.events)) deliveries);
    m "sim.host_ns_per_event" "ns" (r.cpu_s *. 1e9 /. float_of_int (max 1 (d (fun c -> c.events))));
    m "sim.pending_p99" "count" (float_of_int (Dist.tail (Dist.sorted_copy (Array.sub s.pending 0 s.len))).value);
    m "net.bytes_per_delivery" "B" (ratio (d (fun c -> c.bytes)) deliveries);
    m "net.packets_per_delivery" "count" (ratio (d (fun c -> c.packets)) deliveries);
    m "net.server_nic_util" "frac"
      (if steady_span > 0.0 then float_of_int nic_bytes /. Net.Host.nic_bandwidth server /. steady_span else 0.0);
    m "net.batches_per_bcast" "count" (ratio (d (fun c -> c.batches)) bcasts);
    m "net.server_cpu_util" "frac" (if replicated then 0.0 else util ~busy:(c1.server_cpu -. c0.server_cpu) ~span:steady_span ~workers:(workers server));
    m "net.server_cpu_wait_p99_ms" "ms" (if replicated then 0.0 else cpu_wait);
    m "net.client_cpu_util_max" "frac"
      (max_util c0.client_cpu c1.client_cpu ~span:steady_span ~workers:(workers r.world.client_hosts.(0)));
    m "proto.encodes_per_op" "count" (ratio (d (fun c -> c.encodes)) n);
    m "proto.encode_deliver_ns" "ns" enc;
    m "proto.decode_deliver_ns" "ns" dec;
    m "proto.encode_join_state_ns" "ns" js;
    m "core.deliveries_per_bcast" "count" (ratio (d (fun c -> c.deliveries_sent)) bcasts);
    m "core.requests_per_op" "count" (ratio (d (fun c -> c.requests)) n);
    m "core.responses_per_op" "count" (ratio (d (fun c -> c.responses)) n);
    m "core.transfer_cache_hit_ratio" "frac"
      (ratio (d (fun c -> c.cache_hits)) (d (fun c -> c.cache_hits) + d (fun c -> c.cache_misses)));
    m "core.transfer_bytes_per_join" "B" (ratio (d (fun c -> c.transfer_bytes)) joins);
    m "core.stale_deliveries" "count" (float_of_int ops.stale);
    m "core.bcast_call_ns" "ns" (sample_median s.bcast_call s.bcast_calls);
    m "core.join_call_ns" "ns" (sample_median s.join_call s.join_calls);
    m "bcast.first_member_p50_ms" "ms" (leg Ops.leg_first_member 50.0);
    m "bcast.first_member_p99_ms" "ms" (leg Ops.leg_first_member 99.0);
    m "bcast.spread_p50_ms" "ms" (leg Ops.leg_spread 50.0);
    m "bcast.spread_p99_ms" "ms" (leg Ops.leg_spread 99.0);
    m "join.connect_p99_ms" "ms" (leg Ops.leg_connect 99.0);
    m "join.transfer_p99_ms" "ms" (leg Ops.leg_transfer 99.0);
    m "relay.frames_per_bcast" "count" (ratio (d (fun c -> c.root_frames)) bcasts);
    m "relay.deliveries_per_frame" "count" (ratio (d (fun c -> c.relay_deliveries)) (d (fun c -> c.relay_fanouts)));
    m "relay.proxied_per_op" "count" (ratio (d (fun c -> c.relay_proxied)) n);
    m "relay.cpu_util_max" "frac"
      (if r.spec.kind = Relay then max_util c0.tier_cpu c1.tier_cpu ~span:steady_span ~workers:tier_workers else 0.0);
    m "replication.fwd_per_bcast" "count" (ratio (d (fun c -> c.forwarded)) bcasts);
    m "replication.applied_per_bcast" "count" (ratio (d (fun c -> c.applied)) bcasts);
    m "replication.coord_cpu_util" "frac"
      (if replicated then util ~busy:(c1.server_cpu -. c0.server_cpu) ~span:steady_span ~workers:(workers server) else 0.0);
    m "replication.coord_cpu_wait_p99_ms" "ms" (if replicated then cpu_wait else 0.0);
    m "replication.replica_cpu_util_max" "frac"
      (if replicated then max_util c0.tier_cpu c1.tier_cpu ~span:steady_span ~workers:tier_workers else 0.0);
    m "replication.elections" "count" (float_of_int (d (fun c -> c.elections)));
    m "storage.records_per_write" "count" (ratio (d (fun c -> c.wal_records)) (d (fun c -> c.wal_writes)));
    m "storage.bytes_per_write" "B" (ratio (d (fun c -> c.disk_bytes)) (d (fun c -> c.wal_writes)));
    m "storage.disk_wait_p99_ms" "ms" (tail_ms s.disk_wait ~len:s.len);
    m "workload.gen_late_ms_max" "ms" (Dist.ms_of_ns r.gen_late_ns);
  ]

(* Host time the tracing adds, as a share of the untraced host time. *)
let trace_overhead ~host_ns ~traced_ns =
  m "trace.overhead_frac" "frac" (if host_ns > 0.0 then (traced_ns /. host_ns) -. 1.0 else 0.0)
