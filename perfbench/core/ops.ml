(* The op table: one preallocated slot per generated operation, filled in by
   the member-side delivery hook and the join continuations.

   All times are integer virtual nanoseconds ([ns_of_time]), so span
   arithmetic is exact: first-member plus spread equals the end-to-end time
   to the nanosecond, which the traced run checks for every op.

   The delivery hook is the only code the benchmark runs per member
   delivery. It allocates nothing and parses nothing: a group's seqno is
   mapped to its op once, on the op's first delivery anywhere, and every
   later delivery of that seqno is an array lookup. *)

exception Violation of string
(** A correctness check failed. The run aborts with a non-zero exit; it is
    never counted as a slow or failed op. *)

let violation fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt

let k_bcast = 0

let k_join = 1

let ns_of_time t = int_of_float (Float.round (t *. 1e9))

(* Width of the decimal op id written at the head of every payload. *)
let id_digits = 10

(* --- spans ------------------------------------------------------------ *)

(* Legs of an op's end-to-end time. A broadcast is first-member then spread;
   a join is connect then transfer. *)
let leg_first_member = 0

let leg_spread = 1

let leg_connect = 2

let leg_transfer = 3

let leg_name = [| "first_member"; "spread"; "connect"; "transfer" |]

(* Two spans per op, four ints each (op, leg, start, stop), in a buffer
   preallocated before the run and written out after it. *)
type spans = { buf : int array; mutable len : int }

let create_spans ~ops = { buf = Array.make (ops * 2 * 4) 0; len = 0 }

let record s ~op ~leg ~start ~stop =
  let i = s.len * 4 in
  s.buf.(i) <- op;
  s.buf.(i + 1) <- leg;
  s.buf.(i + 2) <- start;
  s.buf.(i + 3) <- stop;
  s.len <- s.len + 1

type t = {
  engine : Sim.Engine.t;
  kind : int array;
  gidx : int array;  (** group index of the op *)
  due : int array;
  first : int array;  (** first intended member has it / join connected; -1 *)
  fin : int array;  (** last intended member has it / join accepted; -1 *)
  count : int array;  (** intended-member deliveries so far *)
  intended : int array;
  seqno_of : int array;  (** group seqno a broadcast op got; -1 *)
  seq_op : int array array;  (** per group: seqno -> op, -1 until bound *)
  expected : int array;  (** per member slot: next seqno; -1 not joined *)
  join_at : int array;  (** per member slot: first seqno after its join state *)
  counted : bool array;  (** per member slot: counts toward completion *)
  mutable completed : int;
  mutable deliveries : int;  (** every member delivery, counted or not *)
  mutable stale : int;
      (** deliveries of updates the member's join state already held: a
          known defect of the single server under [Sync_logging], whose
          deferred fan-out reaches members that joined while the update's
          log write was in flight. Counted and reported, not aborted on. *)
  spans : spans;  (** empty unless [tracing] *)
  tracing : bool;
}

let create ?(tracing = false) engine ~ops ~slots ~group_ops =
  {
    engine;
    kind = Array.make ops k_bcast;
    gidx = Array.make ops 0;
    due = Array.make ops 0;
    first = Array.make ops (-1);
    fin = Array.make ops (-1);
    count = Array.make ops 0;
    intended = Array.make ops 0;
    seqno_of = Array.make ops (-1);
    seq_op = Array.map (fun n -> Array.make n (-1)) group_ops;
    expected = Array.make slots (-1);
    join_at = Array.make slots 0;
    counted = Array.make slots true;
    completed = 0;
    deliveries = 0;
    stale = 0;
    spans = create_spans ~ops:(if tracing then ops else 0);
    tracing;
  }

let length t = Array.length t.kind

(* Payload of op [op]: its zero-padded decimal id, then filler. *)
let payload ~op ~size =
  let b = Bytes.make (max size id_digits) 'x' in
  let s = Printf.sprintf "%0*d" id_digits op in
  Bytes.blit_string s 0 b 0 id_digits;
  Bytes.unsafe_to_string b

let op_of_payload data =
  if String.length data < id_digits then violation "payload shorter than its op id";
  let v = ref 0 in
  for i = 0 to id_digits - 1 do
    let c = Char.code data.[i] - 48 in
    if c < 0 || c > 9 then violation "payload does not start with an op id";
    v := (!v * 10) + c
  done;
  !v

(* First delivery of [seqno] anywhere: parse the op id once and bind. *)
let bind t ~gidx ~seqno data =
  let op = op_of_payload data in
  if op >= length t then violation "group %d seqno %d carries unknown op %d" gidx seqno op;
  if t.kind.(op) <> k_bcast || t.gidx.(op) <> gidx then
    violation "group %d seqno %d carries op %d of another group" gidx seqno op;
  if t.seqno_of.(op) >= 0 then
    violation "op %d sequenced twice (seqnos %d and %d)" op t.seqno_of.(op) seqno;
  t.seqno_of.(op) <- seqno;
  t.seq_op.(gidx).(seqno) <- op;
  op
[@@corona.cold]

let now_ns t = ns_of_time (Sim.Engine.now t.engine)

(* An op just completed: record its two legs. *)
let close_spans t op ~a ~b =
  record t.spans ~op ~leg:a ~start:t.due.(op) ~stop:t.first.(op);
  record t.spans ~op ~leg:b ~start:t.first.(op) ~stop:t.fin.(op)

let gap t ~slot ~seqno =
  violation "member slot %d: got seqno %d, expected %d" slot seqno t.expected.(slot)
[@@corona.cold]

let out_of_range ~gidx ~seqno = violation "group %d: seqno %d beyond its op count" gidx seqno
[@@corona.cold]

(* The member joined: it holds every update below [next]. *)
let joined t ~slot ~next =
  t.expected.(slot) <- next;
  t.join_at.(slot) <- next

(* An in-order delivery: bind its op if new, and count it. *)
let accept t ~slot ~gidx ~seqno ~data =
  t.expected.(slot) <- seqno + 1;
  let map = t.seq_op.(gidx) in
  if seqno >= Array.length map then out_of_range ~gidx ~seqno;
  let bound = map.(seqno) in
  let op = if bound >= 0 then bound else bind t ~gidx ~seqno data in
  t.deliveries <- t.deliveries + 1;
  if t.counted.(slot) then begin
    (* The clock is read only at an op's first and last delivery. *)
    let c = t.count.(op) + 1 in
    t.count.(op) <- c;
    if c = 1 then t.first.(op) <- now_ns t;
    if c = t.intended.(op) then begin
      t.fin.(op) <- now_ns t;
      t.completed <- t.completed + 1;
      if t.tracing then close_spans t op ~a:leg_first_member ~b:leg_spread
    end
  end
[@@corona.hot]

(* Called by a member's event handler on every [Delivered]. Seqnos must
   arrive without gaps, in increasing order; the one tolerated exception is
   a stale copy of an update below the member's join point (see [stale]). *)
let deliver t ~slot ~gidx ~seqno ~data =
  if seqno <> t.expected.(slot) then
    if seqno < t.join_at.(slot) then t.stale <- t.stale + 1 else gap t ~slot ~seqno
  else accept t ~slot ~gidx ~seqno ~data
[@@corona.hot]

let join_connected t op = t.first.(op) <- now_ns t

let join_accepted t op =
  t.fin.(op) <- now_ns t;
  t.completed <- t.completed + 1;
  if t.tracing then close_spans t op ~a:leg_connect ~b:leg_transfer

(* --- span checks and output ------------------------------------------ *)

let span_duration s i = s.buf.((i * 4) + 3) - s.buf.((i * 4) + 2)

(* Span closure: for every op, the durations of its two legs sum to its
   end-to-end time, exactly. Returns the number of ops checked. *)
let check_closure t =
  let s = t.spans in
  let checked = ref 0 in
  let i = ref 0 in
  while !i < s.len do
    let op = s.buf.(!i * 4) in
    if s.buf.((!i + 1) * 4) <> op then violation "span buffer: op %d has one leg" op;
    let total = span_duration s !i + span_duration s (!i + 1) in
    if total <> t.fin.(op) - t.due.(op) then
      violation "op %d: legs sum to %d ns, end-to-end is %d ns" op total (t.fin.(op) - t.due.(op));
    incr checked;
    i := !i + 2
  done;
  !checked

let write_spans s path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "op\tleg\tstart_ns\tstop_ns\n";
      for i = 0 to s.len - 1 do
        Printf.fprintf oc "%d\t%s\t%d\t%d\n" s.buf.(i * 4) leg_name.(s.buf.((i * 4) + 1))
          s.buf.((i * 4) + 2) s.buf.((i * 4) + 3)
      done)

(* Per-leg durations of the ops matching [keep], as a sortable array. *)
let leg_samples t ~leg ~keep =
  let s = t.spans in
  let out = ref [] in
  for i = 0 to s.len - 1 do
    if s.buf.((i * 4) + 1) = leg && keep s.buf.(i * 4) then out := span_duration s i :: !out
  done;
  Array.of_list !out
