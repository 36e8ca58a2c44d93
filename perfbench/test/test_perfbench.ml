(* Tests of the benchmark's own statistics and instrumentation: tail
   selection, the goodput window, exact span closure, and an allocation-free
   delivery hook. *)

open Perfbench

let ints n = Array.init n (fun i -> i + 1)

let test_tail_selection () =
  (* 1000 samples: p99 has exactly 10 beyond it. *)
  let t = Dist.tail (ints 1000) in
  Alcotest.(check (float 0.0)) "p99 at n=1000" 99.0 t.pct;
  Alcotest.(check int) "p99 value" 990 t.value;
  Alcotest.(check int) "n reported" 1000 t.n;
  (* 999 samples leave only 9 beyond p99: fall back to p98. *)
  let t = Dist.tail (ints 999) in
  Alcotest.(check (float 0.0)) "p98 at n=999" 98.0 t.pct;
  Alcotest.(check bool) "at least 10 beyond" true (Dist.beyond ~n:999 t.pct >= Dist.min_beyond);
  (* Never above p99, however many samples. *)
  Alcotest.(check (float 0.0)) "capped at p99" 99.0 (Dist.tail (ints 100_000)).pct;
  (* 100 samples: p90 has exactly 10 beyond. *)
  Alcotest.(check (float 0.0)) "p90 at n=100" 90.0 (Dist.tail (ints 100)).pct;
  (* Too few for any tail: the median, with n saying how little it rests on. *)
  let t = Dist.tail (ints 5) in
  Alcotest.(check (float 0.0)) "median at n=5" 50.0 t.pct;
  Alcotest.(check int) "n=5 reported" 5 t.n;
  Alcotest.(check int) "empty" 0 (Dist.tail [||]).value

let test_goodput_window () =
  let s = 1_000_000_000 in
  (* Completions: before the window, on its start, inside, on its end,
     after it, and never. *)
  let fin = [| s - 1; s; (2 * s) + 7; 3 * s; (3 * s) + 1; -1 |] in
  Alcotest.(check int) "start in, stop out" 2
    (Dist.completed_within ~fin ~start:s ~stop:(3 * s));
  Alcotest.(check (float 1e-12)) "ops per second" 1.0 (Dist.goodput ~fin ~start:s ~stop:(3 * s))

(* Drive one broadcast to three members and one join at awkward float
   times; both ops' legs must sum to their end-to-end time exactly. *)
let test_span_closure () =
  let engine = Sim.Engine.create () in
  let ops = Ops.create ~tracing:true engine ~ops:2 ~slots:3 ~group_ops:[| 4 |] in
  ops.kind.(0) <- Ops.k_bcast;
  ops.intended.(0) <- 3;
  ops.due.(0) <- Ops.ns_of_time 0.1;
  ops.kind.(1) <- Ops.k_join;
  ops.intended.(1) <- 1;
  ops.due.(1) <- Ops.ns_of_time 0.2;
  for slot = 0 to 2 do
    Ops.joined ops ~slot ~next:0
  done;
  let data = Ops.payload ~op:0 ~size:32 in
  List.iteri
    (fun slot at ->
      ignore
        (Sim.Engine.schedule_at engine at (fun () ->
             Ops.deliver ops ~slot ~gidx:0 ~seqno:0 ~data)))
    [ 0.3000000000000000444; 0.7; 1.1 ];
  ignore (Sim.Engine.schedule_at engine 0.33 (fun () -> Ops.join_connected ops 1));
  ignore (Sim.Engine.schedule_at engine 0.9 (fun () -> Ops.join_accepted ops 1));
  Sim.Engine.run engine;
  Alcotest.(check int) "both complete" 2 ops.completed;
  Alcotest.(check int) "closure checked on every op" 2 (Ops.check_closure ops);
  let legs leg = Ops.leg_samples ops ~leg ~keep:(fun _ -> true) in
  Alcotest.(check int) "first member + spread = end to end" (ops.fin.(0) - ops.due.(0))
    ((legs Ops.leg_first_member).(0) + (legs Ops.leg_spread).(0));
  Alcotest.(check int) "connect + transfer = end to end" (ops.fin.(1) - ops.due.(1))
    ((legs Ops.leg_connect).(0) + (legs Ops.leg_transfer).(0))

let test_hook_allocation () =
  let members = 10_000 in
  let engine = Sim.Engine.create () in
  let ops = Ops.create engine ~ops:1 ~slots:members ~group_ops:[| 4 |] in
  ops.intended.(0) <- members;
  for slot = 0 to members - 1 do
    Ops.joined ops ~slot ~next:0
  done;
  let data = Ops.payload ~op:0 ~size:1000 in
  (* The first delivery binds seqno 0 to its op and stamps the first
     member: once-per-op work, outside the measured window. *)
  Ops.deliver ops ~slot:0 ~gidx:0 ~seqno:0 ~data;
  let m0 = Gc.minor_words () in
  for slot = 1 to members - 2 do
    Ops.deliver ops ~slot ~gidx:0 ~seqno:0 ~data
  done;
  let words = Gc.minor_words () -. m0 in
  Alcotest.(check (float 0.0)) "minor words over 9998 deliveries" 0.0 words;
  Alcotest.(check int) "all counted" (members - 1) ops.count.(0)

let test_gap_aborts () =
  let engine = Sim.Engine.create () in
  let ops = Ops.create engine ~ops:2 ~slots:1 ~group_ops:[| 4 |] in
  ops.intended.(0) <- 1;
  ops.intended.(1) <- 1;
  Ops.joined ops ~slot:0 ~next:0;
  let skipped () = Ops.deliver ops ~slot:0 ~gidx:0 ~seqno:1 ~data:(Ops.payload ~op:1 ~size:16) in
  Alcotest.(check bool) "a gap is a violation" true
    (match skipped () with () -> false | exception Ops.Violation _ -> true)

let () =
  Alcotest.run "perfbench"
    [
      ( "statistics",
        [
          Alcotest.test_case "tail selection" `Quick test_tail_selection;
          Alcotest.test_case "goodput window" `Quick test_goodput_window;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "span closure" `Quick test_span_closure;
          Alcotest.test_case "delivery hook allocates nothing" `Quick test_hook_allocation;
          Alcotest.test_case "seqno gap aborts" `Quick test_gap_aborts;
        ] );
    ]
