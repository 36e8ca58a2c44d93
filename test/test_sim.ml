(* Unit and property tests for the discrete-event engine, RNG and
   statistics. *)

let test_clock_starts_at_zero () =
  let e = Sim.Engine.create () in
  Alcotest.(check (float 0.0)) "t=0" 0.0 (Sim.Engine.now e)

let test_events_fire_in_time_order () =
  let e = Sim.Engine.create () in
  let order = ref [] in
  let record tag () = order := tag :: !order in
  ignore (Sim.Engine.schedule e ~delay:3.0 (record "c"));
  ignore (Sim.Engine.schedule e ~delay:1.0 (record "a"));
  ignore (Sim.Engine.schedule e ~delay:2.0 (record "b"));
  Sim.Engine.run e;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !order);
  Alcotest.(check (float 0.0)) "clock at last event" 3.0 (Sim.Engine.now e)

let test_ties_fire_in_schedule_order () =
  let e = Sim.Engine.create () in
  let order = ref [] in
  for i = 0 to 9 do
    ignore (Sim.Engine.schedule e ~delay:1.0 (fun () -> order := i :: !order))
  done;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "fifo ties" (List.init 10 Fun.id) (List.rev !order)

let test_cancel () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let id = Sim.Engine.schedule e ~delay:1.0 (fun () -> fired := true) in
  Sim.Engine.cancel e id;
  Alcotest.(check int) "nothing pending" 0 (Sim.Engine.pending e);
  Sim.Engine.run e;
  Alcotest.(check bool) "cancelled event did not fire" false !fired

let test_cancel_twice_is_safe () =
  let e = Sim.Engine.create () in
  let a = Sim.Engine.schedule e ~delay:1.0 ignore in
  let b = Sim.Engine.schedule e ~delay:2.0 ignore in
  Sim.Engine.cancel e a;
  Sim.Engine.cancel e a;
  Alcotest.(check int) "one left" 1 (Sim.Engine.pending e);
  Sim.Engine.cancel e b;
  Alcotest.(check int) "none left" 0 (Sim.Engine.pending e)

let test_cancel_after_fire_keeps_pending_accurate () =
  (* Regression: cancelling an event that already ran (or cancelling twice)
     used to decrement [pending] again, driving the count negative and
     leaking the tombstone in the old side-table scheme. *)
  let e = Sim.Engine.create () in
  let a = Sim.Engine.schedule e ~delay:1.0 ignore in
  let b = Sim.Engine.schedule e ~delay:2.0 ignore in
  Alcotest.(check bool) "first event fired" true (Sim.Engine.step e);
  Alcotest.(check int) "one pending after step" 1 (Sim.Engine.pending e);
  Sim.Engine.cancel e a;
  Sim.Engine.cancel e a;
  Alcotest.(check int) "cancel-after-fire is a no-op" 1 (Sim.Engine.pending e);
  Sim.Engine.cancel e b;
  Sim.Engine.cancel e b;
  Alcotest.(check int) "double cancel decrements once" 0 (Sim.Engine.pending e);
  Sim.Engine.run e;
  Alcotest.(check int) "queue drained" 0 (Sim.Engine.pending e)

let test_events_fired_counter () =
  let e = Sim.Engine.create () in
  Alcotest.(check int) "starts at zero" 0 (Sim.Engine.events_fired e);
  for _ = 1 to 3 do
    ignore (Sim.Engine.schedule e ~delay:1.0 ignore)
  done;
  let cancelled = Sim.Engine.schedule e ~delay:2.0 ignore in
  Sim.Engine.cancel e cancelled;
  Sim.Engine.run e;
  Alcotest.(check int) "counts executed events only" 3 (Sim.Engine.events_fired e)

let test_schedule_from_callback () =
  let e = Sim.Engine.create () in
  let times = ref [] in
  ignore
    (Sim.Engine.schedule e ~delay:1.0 (fun () ->
         times := Sim.Engine.now e :: !times;
         ignore
           (Sim.Engine.schedule e ~delay:0.5 (fun () ->
                times := Sim.Engine.now e :: !times))));
  Sim.Engine.run e;
  Alcotest.(check (list (float 1e-9))) "nested schedule" [ 1.0; 1.5 ] (List.rev !times)

let test_run_until () =
  let e = Sim.Engine.create () in
  let fired = ref [] in
  List.iter
    (fun d -> ignore (Sim.Engine.schedule e ~delay:d (fun () -> fired := d :: !fired)))
    [ 1.0; 2.0; 3.0; 4.0 ];
  Sim.Engine.run ~until:2.5 e;
  Alcotest.(check (list (float 0.0))) "only <= 2.5 fired" [ 1.0; 2.0 ] (List.rev !fired);
  Alcotest.(check (float 0.0)) "clock advanced to until" 2.5 (Sim.Engine.now e);
  Sim.Engine.run e;
  Alcotest.(check int) "rest fired later" 4 (List.length !fired)

let test_negative_delay_clamped () =
  let e = Sim.Engine.create () in
  let at = ref nan in
  ignore (Sim.Engine.schedule e ~delay:5.0 (fun () ->
      ignore (Sim.Engine.schedule e ~delay:(-3.0) (fun () -> at := Sim.Engine.now e))));
  Sim.Engine.run e;
  Alcotest.(check (float 0.0)) "clamped to now" 5.0 !at

let test_periodic_stops_when_false () =
  let e = Sim.Engine.create () in
  let n = ref 0 in
  Sim.Engine.periodic e ~every:1.0 (fun () ->
      incr n;
      !n < 5);
  Sim.Engine.run e;
  Alcotest.(check int) "ran 5 times" 5 !n;
  Alcotest.(check (float 0.0)) "stopped at 5s" 5.0 (Sim.Engine.now e)

let test_determinism () =
  let run_once () =
    let e = Sim.Engine.create ~seed:99L () in
    let rng = Sim.Engine.rng e in
    let acc = ref [] in
    for _ = 1 to 5 do
      let d = Sim.Rng.float rng 10.0 in
      ignore (Sim.Engine.schedule e ~delay:d (fun () -> acc := Sim.Engine.now e :: !acc))
    done;
    Sim.Engine.run e;
    !acc
  in
  Alcotest.(check (list (float 0.0))) "identical runs" (run_once ()) (run_once ())

let prop_events_fire_in_nondecreasing_time =
  QCheck.Test.make ~name:"random schedules fire in nondecreasing time order"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 0 50) (float_range 0.0 100.0))
    (fun delays ->
      let e = Sim.Engine.create () in
      let fired = ref [] in
      List.iter
        (fun d ->
          ignore
            (Sim.Engine.schedule e ~delay:d (fun () ->
                 fired := Sim.Engine.now e :: !fired)))
        delays;
      Sim.Engine.run e;
      let times = List.rev !fired in
      let rec sorted = function
        | a :: (b :: _ as rest) -> a <= b && sorted rest
        | [ _ ] | [] -> true
      in
      List.length times = List.length delays && sorted times)

(* A run must be indistinguishable from its members scheduled one by one
   with [schedule_pooled], in order of member index: same firing order,
   same clock values, same [pending]/[events_fired] after every event.
   Timestamps come from four values so runs collide with each other and
   with classic and pooled events; some classic events are cancelled
   (tombstones among run heads), and some events schedule more from their
   callback, including runs with times already in the past. *)
type run_op = {
  op_kind : int; (* 0 classic, 1 pooled, 2 run *)
  op_times : int list; (* one per member; the head alone otherwise *)
  op_sorted : bool; (* run members issued in nondecreasing time *)
  op_spawn : bool;
  op_cancel : bool; (* classic only *)
}

let gen_run_op =
  QCheck.Gen.(
    map
      (fun ((op_kind, op_times), (op_sorted, op_spawn, op_cancel)) ->
        { op_kind; op_times; op_sorted; op_spawn; op_cancel })
      (pair
         (pair (int_range 0 2) (list_size (int_range 1 6) (int_range 0 3)))
         (triple bool bool bool)))

let show_run_op o =
  Printf.sprintf "{kind=%d times=[%s] sorted=%b spawn=%b cancel=%b}" o.op_kind
    (String.concat ";" (List.map string_of_int o.op_times))
    o.op_sorted o.op_spawn o.op_cancel

let replay_run_ops ~runs ops =
  let e = Sim.Engine.create () in
  let log = Buffer.create 512 in
  let note label =
    Printf.bprintf log "%s@%h p%d f%d\n" label (Sim.Engine.now e)
      (Sim.Engine.pending e) (Sim.Engine.events_fired e)
  in
  let schedule_members times f =
    if runs then begin
      let at = Array.of_list times in
      let n = Array.length at in
      Sim.Engine.schedule_run e ~at ~n f
    end
    else List.iteri (fun j at -> Sim.Engine.schedule_pooled e ~at f j) times
  in
  let rec fire ~spawn label =
    note label;
    if spawn then begin
      let now = Sim.Engine.now e in
      ignore (Sim.Engine.schedule_at e now (fun () -> fire ~spawn:false (label ^ "c")));
      schedule_members
        [ now +. 1.0; now -. 2.0; now; now -. 1.0 ]
        (fun j -> fire ~spawn:false (Printf.sprintf "%sr%d" label j));
      Sim.Engine.schedule_pooled e ~at:(now +. 1.0)
        (fun _ -> fire ~spawn:false (label ^ "p"))
        0
    end
  in
  List.iteri
    (fun i o ->
      let label = string_of_int i in
      let times = List.map float_of_int o.op_times in
      let times = if o.op_sorted then List.sort Float.compare times else times in
      match o.op_kind with
      | 0 ->
          let id =
            Sim.Engine.schedule_at e (List.hd times) (fun () ->
                fire ~spawn:o.op_spawn label)
          in
          if o.op_cancel then Sim.Engine.cancel e id
      | 1 ->
          Sim.Engine.schedule_pooled e ~at:(List.hd times)
            (fun _ -> fire ~spawn:o.op_spawn label)
            0
      | _ ->
          schedule_members times (fun j ->
              fire ~spawn:o.op_spawn (Printf.sprintf "%s.%d" label j)))
    ops;
  note "issued";
  Sim.Engine.run ~until:1.5 e;
  note "until";
  Sim.Engine.run e;
  note "drained";
  Buffer.contents log

let prop_run_matches_pooled_events =
  QCheck.Test.make ~name:"a run fires exactly as its members scheduled one by one"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat " " (List.map show_run_op ops))
       QCheck.Gen.(list_size (int_range 1 20) gen_run_op))
    (fun ops ->
      let expected = replay_run_ops ~runs:false ops in
      let got = replay_run_ops ~runs:true ops in
      if expected <> got then
        QCheck.Test.fail_reportf "one by one:\n%s\nas runs:\n%s" expected got
      else true)

(* --- rng --------------------------------------------------------------- *)

let test_rng_reproducible () =
  let a = Sim.Rng.create 7L and b = Sim.Rng.create 7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Rng.int64 a) (Sim.Rng.int64 b)
  done

let test_rng_split_independent () =
  let a = Sim.Rng.create 7L in
  let child = Sim.Rng.split a in
  (* The child stream differs from the parent's continuation. *)
  let c1 = Sim.Rng.int64 child and p1 = Sim.Rng.int64 a in
  Alcotest.(check bool) "streams differ" true (c1 <> p1)

let prop_int_in_range =
  QCheck.Test.make ~name:"Rng.int within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Sim.Rng.create (Int64.of_int seed) in
      let v = Sim.Rng.int rng bound in
      v >= 0 && v < bound)

let prop_float_in_range =
  QCheck.Test.make ~name:"Rng.float within bounds" ~count:500 QCheck.small_int
    (fun seed ->
      let rng = Sim.Rng.create (Int64.of_int seed) in
      let v = Sim.Rng.float rng 3.5 in
      v >= 0.0 && v < 3.5)

let prop_shuffle_is_permutation =
  QCheck.Test.make ~name:"Rng.shuffle permutes" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let rng = Sim.Rng.create (Int64.of_int seed) in
      let a = Array.of_list l in
      Sim.Rng.shuffle rng a;
      List.sort compare (Array.to_list a) = List.sort compare l)

let prop_exponential_positive =
  QCheck.Test.make ~name:"Rng.exponential positive" ~count:500 QCheck.small_int
    (fun seed ->
      let rng = Sim.Rng.create (Int64.of_int seed) in
      Sim.Rng.exponential rng ~mean:2.0 > 0.0)

(* --- stats ------------------------------------------------------------- *)

let test_stats_basic () =
  let s = Sim.Stats.create () in
  List.iter (Sim.Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Sim.Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Sim.Stats.mean s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Sim.Stats.min_value s);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Sim.Stats.max_value s);
  Alcotest.(check (float 1e-6)) "stddev" 1.2909944487 (Sim.Stats.stddev s)

let test_stats_percentiles () =
  let s = Sim.Stats.create () in
  for i = 1 to 100 do
    Sim.Stats.add s (float_of_int i)
  done;
  Alcotest.(check (float 0.0)) "p50" 50.0 (Sim.Stats.percentile s 50.0);
  Alcotest.(check (float 0.0)) "p95" 95.0 (Sim.Stats.percentile s 95.0);
  Alcotest.(check (float 0.0)) "p100" 100.0 (Sim.Stats.percentile s 100.0);
  Alcotest.(check (float 0.0)) "p0 -> min" 1.0 (Sim.Stats.percentile s 0.0)

let test_stats_empty () =
  let s = Sim.Stats.create () in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Sim.Stats.mean s));
  Alcotest.(check (float 0.0)) "stddev 0" 0.0 (Sim.Stats.stddev s)

let prop_mean_between_min_max =
  QCheck.Test.make ~name:"Stats.mean within [min,max]" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range (-1000.) 1000.))
    (fun l ->
      let s = Sim.Stats.create () in
      List.iter (Sim.Stats.add s) l;
      let m = Sim.Stats.mean s in
      m >= Sim.Stats.min_value s -. 1e-9 && m <= Sim.Stats.max_value s +. 1e-9)

let prop_merge_counts =
  QCheck.Test.make ~name:"Stats.merge sums counts and totals" ~count:200
    QCheck.(pair (list (float_range 0. 100.)) (list (float_range 0. 100.)))
    (fun (la, lb) ->
      let a = Sim.Stats.create () and b = Sim.Stats.create () in
      List.iter (Sim.Stats.add a) la;
      List.iter (Sim.Stats.add b) lb;
      let m = Sim.Stats.merge a b in
      Sim.Stats.count m = List.length la + List.length lb
      && abs_float (Sim.Stats.total m -. (Sim.Stats.total a +. Sim.Stats.total b))
         < 1e-6)

let test_histogram () =
  let h = Sim.Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~buckets:10 in
  List.iter (Sim.Stats.Histogram.add h) [ 0.5; 1.5; 1.6; 9.9; -5.0; 50.0 ];
  let counts = Sim.Stats.Histogram.counts h in
  Alcotest.(check int) "bucket 0 (incl. underflow)" 2 counts.(0);
  Alcotest.(check int) "bucket 1" 2 counts.(1);
  Alcotest.(check int) "bucket 9 (incl. overflow)" 2 counts.(9);
  let lo, hi = Sim.Stats.Histogram.bucket_bounds h 3 in
  Alcotest.(check (float 1e-9)) "bound lo" 3.0 lo;
  Alcotest.(check (float 1e-9)) "bound hi" 4.0 hi

let () =
  let tc = Alcotest.test_case in
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "sim"
    [
      ( "engine",
        [
          tc "clock starts at zero" `Quick test_clock_starts_at_zero;
          tc "events fire in time order" `Quick test_events_fire_in_time_order;
          tc "ties fire in schedule order" `Quick test_ties_fire_in_schedule_order;
          tc "cancel" `Quick test_cancel;
          tc "cancel twice is safe" `Quick test_cancel_twice_is_safe;
          tc "cancel after fire keeps pending accurate" `Quick
            test_cancel_after_fire_keeps_pending_accurate;
          tc "events_fired counter" `Quick test_events_fired_counter;
          tc "schedule from callback" `Quick test_schedule_from_callback;
          tc "run ~until" `Quick test_run_until;
          tc "negative delay clamped" `Quick test_negative_delay_clamped;
          tc "periodic stops when false" `Quick test_periodic_stops_when_false;
          tc "deterministic runs" `Quick test_determinism;
          q prop_events_fire_in_nondecreasing_time;
          q prop_run_matches_pooled_events;
        ] );
      ( "rng",
        [
          tc "reproducible" `Quick test_rng_reproducible;
          tc "split independence" `Quick test_rng_split_independent;
          q prop_int_in_range;
          q prop_float_in_range;
          q prop_shuffle_is_permutation;
          q prop_exponential_positive;
        ] );
      ( "stats",
        [
          tc "basic moments" `Quick test_stats_basic;
          tc "percentiles" `Quick test_stats_percentiles;
          tc "empty collector" `Quick test_stats_empty;
          tc "histogram" `Quick test_histogram;
          q prop_mean_between_min_max;
          q prop_merge_counts;
        ] );
    ]
