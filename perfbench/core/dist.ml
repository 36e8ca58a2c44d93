(* Distribution helpers shared by every metric the benchmark reports.

   Latencies are integer virtual nanoseconds, so percentile selection is
   exact and repeatable: the same seed gives bit-identical figures. *)

(* Percentiles the tail selector may report, highest first. *)
let tail_candidates = [ 99.0; 98.0; 95.0; 90.0; 75.0; 50.0 ]

(* Samples that must lie strictly beyond a reported tail percentile. *)
let min_beyond = 10

type tail = { pct : float; value : int; n : int }
(** A tail figure: the percentile actually reported, its value, and the
    sample count it was drawn from. *)

let sorted_copy a =
  let s = Array.copy a in
  Array.sort Int.compare s;
  s

(* Nearest-rank index of percentile [p] in [n] sorted samples. *)
let rank ~n p =
  let r = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
  max 0 (min (n - 1) r)

let beyond ~n p = n - 1 - rank ~n p

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0 else sorted.(rank ~n p)

(* The highest candidate percentile with at least [min_beyond] samples
   beyond it. With too few samples for any candidate the median is
   reported (and [n] says how little it rests on). *)
let tail sorted =
  let n = Array.length sorted in
  let pct =
    match List.find_opt (fun p -> beyond ~n p >= min_beyond) tail_candidates with
    | Some p -> p
    | None -> 50.0
  in
  { pct; value = percentile sorted pct; n }

let ms_of_ns ns = float_of_int ns /. 1e6

(* Median of a float list (mean of the middle pair when even). *)
let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Ops counted by the goodput metric: completion at or after [start] and
   strictly before [stop] (a [-1] completion never happened). *)
let completed_within ~fin ~start ~stop =
  Array.fold_left (fun acc t -> if t >= start && t < stop then acc + 1 else acc) 0 fin

let goodput ~fin ~start ~stop =
  float_of_int (completed_within ~fin ~start ~stop) /. (float_of_int (stop - start) /. 1e9)
