(* Two-clock service benchmark.

   Usage:
     main.exe --workload fanout|stateful|replicated|relay --seed N
              --seconds S --trace 0|1 [--overload-scale F]

   Runs one open-loop workload against the simulated service. It first
   times the set-up alone several times (setup_s is their median), then
   repeats the same seeded run (set-up, steady, overload, drain) until [S]
   seconds of wall time are used, at least once. Virtual-clock figures are
   identical in every repetition (checked); host-clock figures are medians
   over them. With [--trace 0] it prints the end-to-end metrics; with
   [--trace 1] it alternates untraced and traced repetitions and prints the
   per-layer metrics, including the tracing overhead between the two.

   Every metric is printed by name, unit and value; the last line of
   standard output is one JSON object. A failed correctness check exits
   with code 2 and prints no result. [--overload-scale] multiplies the
   overload rate: at 2.0 (3x capacity) the goodput reads the capacity off,
   which is how the workload constants were calibrated.

   Seed 1 is held out: no constant was tuned on it, so later claims can be
   checked on it. *)

open Perfbench

(* Set-ups timed per run, before the repetitions: at least this many, and
   more while the set-up phase has used less than [setup_budget_s]. *)
let min_setups = 11

let setup_budget_s = 2.0

let usage () =
  prerr_endline
    "usage: main.exe --workload fanout|stateful|replicated|relay --seed N --seconds S --trace 0|1 \
     [--overload-scale F]";
  exit 1

let parse argv =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let scale = ref 1.0 in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: v :: rest -> trace := int_of_string_opt v; go rest
    | "--overload-scale" :: v :: rest ->
        (match float_of_string_opt v with Some f -> scale := f | None -> usage ());
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  match (Bench.find !workload, !seed, !seconds, !trace) with
  | Some spec, Some seed, Some seconds, Some ((0 | 1) as trace) -> (spec, seed, seconds, trace = 1, !scale)
  | _ -> usage ()

let print_table title rows =
  Printf.printf "%s\n" title;
  List.iter
    (fun (r : Metrics.metric) -> Printf.printf "  %-34s %16.6f %s\n" r.name r.value r.unit_)
    rows

let json_result ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (r : Metrics.metric) ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" r.name r.value r.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    attempted failed body

let trace_dir = "perfbench/out"

(* Write the traced repetition's spans out; returns a line for the report. *)
let write_spans (spec : Bench.spec) ~seed (ops : Ops.t) =
  (match Sys.is_directory trace_dir with
  | true -> ()
  | false | (exception Sys_error _) -> Sys.mkdir trace_dir 0o755);
  let path = Printf.sprintf "%s/spans-%s-%d.tsv" trace_dir spec.name seed in
  Ops.write_spans ops.spans path;
  Printf.sprintf "  spans: %d written to %s (closure exact on every op)\n" ops.spans.len path

let () =
  let spec, seed, seconds, trace, overload_scale = parse Sys.argv in
  let start = Bench.wall_now () in
  (* Each repetition is reduced to what the report needs as soon as it
     ends, so no deployment outlives its repetition. *)
  let reference = ref None and figures = ref None and layers = ref None in
  let slices = ref [] and raw_slices = ref [] and traced_slices = ref [] in
  let one tracing =
    let r = Bench.run spec ~seed ~tracing ~overload_scale in
    Metrics.check r;
    (match !reference with
    | None -> reference := Some (Metrics.fingerprint r)
    | Some fp ->
        if Metrics.fingerprint r <> fp then
          Ops.violation "repetition diverged from the first in virtual time");
    if tracing then begin
      traced_slices := r.host_slices :: !traced_slices;
      if !layers = None then begin
        layers := Some (Metrics.per_layer r, write_spans spec ~seed r.ops)
      end
    end
    else begin
      slices := r.host_slices :: !slices;
      raw_slices := r.raw_slices :: !raw_slices;
      if !figures = None then figures := Some (Metrics.virtual_figures r)
    end
  in
  let setups =
    match
      let setups = Bench.setup_phase spec ~seed ~min_n:min_setups ~budget_s:setup_budget_s in
      (* Repeat while another round is likely to end inside the budget. *)
      let round = ref 0.0 in
      while !figures = None || Bench.wall_now () -. start +. (!round /. 2.0) < seconds do
        let r0 = Bench.wall_now () in
        one false;
        if trace then one true;
        round := Bench.wall_now () -. r0
      done;
      setups
    with
    | setups -> setups
    | exception Ops.Violation msg ->
        Printf.eprintf "perfbench %s seed %d: correctness check failed: %s\n%!" spec.name seed msg;
        exit 2
  in
  let v = Option.get !figures in
  let host_ns = Metrics.host_ns_per_delivery !slices in
  let e2e, extra = Metrics.end_to_end v ~host_ns ~setup_s:setups.setup_s in
  let extra =
    extra
    @ [
        Metrics.m "host_ns_per_delivery_raw" "ns" (Metrics.host_ns_per_delivery !raw_slices);
        Metrics.m "setup_s_raw" "s" setups.setup_raw_s;
      ]
  in
  Printf.printf
    "perfbench %s seed %d: %d set-ups, %d untraced + %d traced repetitions, %d ops each\n"
    spec.name seed setups.setup_n (List.length !slices) (List.length !traced_slices) v.attempted;
  Printf.printf
    "  why: %s\n  capacity %.2f ops/s: steady %.3f ops/s for %.0f s, overload %.3f ops/s for %d x %.0f s\n"
    spec.why spec.capacity (0.5 *. spec.capacity) spec.steady_s
    (1.5 *. spec.capacity *. overload_scale) spec.bursts spec.overload_s;
  Printf.printf "  bcast samples n=%d, tail reported at p%g; join samples n=%d, tail at p%g\n"
    v.bcast.tail.n v.bcast.tail.pct v.join.tail.n v.join.tail.pct;
  print_table "end-to-end" (e2e @ extra);
  if v.join.tail.n = 0 then Printf.printf "  join_p50_ms, join_p99_ms: no joins in this workload\n";
  if v.stale > 0 then
    Printf.printf
      "  known defect: %d deliveries of updates already in the member's join state (Sync_logging \
       fan-out reaches members that joined while the log write was in flight)\n"
      v.stale;
  let metrics =
    match !layers with
    | None -> e2e
    | Some (layers, spans_note) ->
        let traced_ns = Metrics.host_ns_per_delivery !traced_slices in
        let layers = layers @ [ Metrics.trace_overhead ~host_ns ~traced_ns ] in
        print_table "per-layer (traced)" layers;
        print_string spans_note;
        layers
  in
  json_result ~attempted:v.attempted ~failed:v.failed metrics
