type time = float

(* An event record doubles as its own cancellation handle: [cancel] flips
   the in-event state in O(1) and [step] skips tombstones as they surface at
   the heap top. No side table, no per-pop hashtable lookup — the hot loop
   of large fan-out simulations is a heap pop plus a tag check. The state
   tag also makes cancellation idempotent against every ordering of
   cancel/fire: only a Pending -> Cancelled transition touches the live
   counter, so cancelling twice, or cancelling an event that already ran,
   cannot corrupt [pending]. *)
type state = Pending | Cancelled | Fired

(* Three flavors share the record and the heap:

   - classic events carry a [unit -> unit] closure and double as their own
     cancellation handle, exactly as before;
   - pooled events carry an [int -> unit] callback plus an integer argument,
     are not cancellable, and their records are recycled through a freelist
     after firing — the steady-state fan-out loop schedules millions of
     them without allocating one record;
   - a run is n pooled events behind one record: the record is keyed as
     the run's earliest unfired member and, when that member fires, is
     re-keyed in place as the next one (see [schedule_run]).

   Recycling is safe precisely because pooled events and runs have no
   identity: neither returns an [event_id], so no handle to a recycled
   record can escape and alias its next incarnation. The [at] field stays a
   boxed-float pointer — reusing a record stores the caller's already-
   boxed float, so reuse allocates nothing. *)
type event = {
  mutable at : time;
  mutable seq : int; (* tie-break: schedule order *)
  mutable run : unit -> unit;
  mutable run_i : int -> unit; (* pooled events and runs only *)
  mutable arg : int;
  mutable st : state;
  kind : kind;
}

and kind = Classic | Pooled | Run of run

(* Member j of a run fires [run_i j] at [r_at.(j)], the caller's scratch,
   read until member j fires. Members fire in (time, j) order: member
   [r_k] when the times are already in that order ([r_sorted]), else member
   [r_order.(r_k)], an order the record keeps (and grows) across reuse.
   One seqno serves every member: events scheduled before the run have
   smaller ones and events scheduled after it larger ones, which is all the
   tie-break against them needs. *)
and run = {
  mutable r_at : float array;
  mutable r_sorted : bool;
  mutable r_order : int array;
  mutable r_k : int;
  mutable r_n : int;
}

type event_id = event

let ignore_i (_ : int) = ()

(* Array-based binary min-heap on (at, seq). *)
module Heap = struct
  type t = { mutable a : event array; mutable len : int }

  let dummy =
    { at = 0.0; seq = 0; run = ignore; run_i = ignore_i; arg = 0; st = Fired;
      kind = Classic }

  let create () = { a = Array.make 64 dummy; len = 0 }

  let before x y = x.at < y.at || (x.at = y.at && x.seq < y.seq)

  let grow h =
    let a = Array.make (2 * Array.length h.a) dummy in
    Array.blit h.a 0 a 0 h.len;
    h.a <- a

  (* The sifts are tail-recursive on int indices: no [ref] cells, so a
     push/pop pair on the hot loop allocates nothing. *)
  let rec sift_up a i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if before a.(i) a.(parent) then begin
        let tmp = a.(parent) in
        a.(parent) <- a.(i);
        a.(i) <- tmp;
        sift_up a parent
      end
    end

  let push h e =
    if h.len = Array.length h.a then grow h;
    h.a.(h.len) <- e;
    h.len <- h.len + 1;
    sift_up h.a (h.len - 1)

  let is_empty h = h.len = 0

  (* Precondition: [not (is_empty h)]. *)
  let top h = h.a.(0)

  let rec sift_down a len i =
    let l = (2 * i) + 1 in
    if l < len then begin
      let r = l + 1 in
      let s = if before a.(l) a.(i) then l else i in
      let s = if r < len && before a.(r) a.(s) then r else s in
      if s <> i then begin
        let tmp = a.(s) in
        a.(s) <- a.(i);
        a.(i) <- tmp;
        sift_down a len s
      end
    end

  (* Precondition: [not (is_empty h)]. *)
  let pop_top h =
    let top = h.a.(0) in
    h.len <- h.len - 1;
    h.a.(0) <- h.a.(h.len);
    h.a.(h.len) <- dummy;
    sift_down h.a h.len 0;
    top
end

(* Freelist of fired pooled-event or run records, an array-stack: push and
   pop are two field stores, no list cells. *)
type freelist = { mutable items : event array; mutable n : int }

(* Precondition: [fl.n > 0]. *)
let take fl =
  fl.n <- fl.n - 1;
  let e = fl.items.(fl.n) in
  fl.items.(fl.n) <- Heap.dummy;
  e

let recycle fl e =
  let cap = Array.length fl.items in
  if fl.n = cap then begin
    let bigger = Array.make (2 * cap) Heap.dummy in
    Array.blit fl.items 0 bigger 0 cap;
    fl.items <- bigger
  end;
  fl.items.(fl.n) <- e;
  fl.n <- fl.n + 1

type t = {
  heap : Heap.t;
  mutable clock : time;
  mutable next_seq : int;
  mutable live : int; (* scheduled and not cancelled, run members counted *)
  mutable fired : int; (* events executed since creation *)
  free : freelist; (* pooled events *)
  free_runs : freelist; (* run records, each keeping its [run] cell *)
  root_rng : Rng.t;
}

let create ?(seed = 1L) () =
  {
    heap = Heap.create ();
    clock = 0.0;
    next_seq = 0;
    live = 0;
    fired = 0;
    free = { items = Array.make 64 Heap.dummy; n = 0 };
    free_runs = { items = Array.make 16 Heap.dummy; n = 0 };
    root_rng = Rng.create seed;
  }

let now t = t.clock

let rng t = t.root_rng

let schedule_at t at run =
  let at = if at < t.clock then t.clock else at in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let e =
    { at; seq; run; run_i = ignore_i; arg = 0; st = Pending; kind = Classic }
  in
  Heap.push t.heap e;
  t.live <- t.live + 1;
  e

let schedule_pooled t ~at run_i arg =
  let at = if at < t.clock then t.clock else at in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let e =
    if t.free.n > 0 then begin
      let e = take t.free in
      e.at <- at;
      e.seq <- seq;
      e.run_i <- run_i;
      e.arg <- arg;
      e
    end
    else { at; seq; run = ignore; run_i; arg; st = Pending; kind = Pooled }
  in
  Heap.push t.heap e;
  t.live <- t.live + 1

(* Firing order of a run: usually the times are in order already (one O(n)
   pass); otherwise an in-place heapsort of member indices on the total
   order (time, j). Top-level and closure-free, so it allocates nothing
   unless the record's order array must grow. *)
let rec in_order (at : float array) n j =
  j >= n || (at.(j - 1) <= at.(j) && in_order at n (j + 1))

let key_lt (keys : float array) a b =
  keys.(a) < keys.(b) || (keys.(a) = keys.(b) && a < b)

let rec sift keys order len i =
  let l = (2 * i) + 1 in
  if l < len then begin
    let r = l + 1 in
    let m = if key_lt keys order.(i) order.(l) then l else i in
    let m = if r < len && key_lt keys order.(m) order.(r) then r else m in
    if m <> i then begin
      let tmp = order.(m) in
      order.(m) <- order.(i);
      order.(i) <- tmp;
      sift keys order len m
    end
  end

let order_run r =
  let n = r.r_n in
  r.r_sorted <- in_order r.r_at n 1;
  if not r.r_sorted then begin
    if Array.length r.r_order < n then
      r.r_order <- Array.make (max n (2 * Array.length r.r_order)) 0;
    let keys = r.r_at and order = r.r_order in
    for j = 0 to n - 1 do
      order.(j) <- j
    done;
    for i = (n / 2) - 1 downto 0 do
      sift keys order n i
    done;
    for len = n - 1 downto 1 do
      let tmp = order.(len) in
      order.(len) <- order.(0);
      order.(0) <- tmp;
      sift keys order len 0
    done
  end

(* Key the run record as its [k]-th member to fire. Consecutive members at
   one instant keep the boxed time already in the record, so a same-instant
   run boxes once rather than once per member. *)
let arm e r k =
  let j = if r.r_sorted then k else r.r_order.(k) in
  r.r_k <- k;
  if r.r_at.(j) <> e.at then e.at <- r.r_at.(j);
  e.arg <- j

let schedule_run t ~at ~n run_i =
  if n > 0 then begin
    for j = 0 to n - 1 do
      if at.(j) < t.clock then at.(j) <- t.clock
    done;
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    let e =
      if t.free_runs.n > 0 then take t.free_runs
      else
        let r = { r_at = at; r_sorted = true; r_order = [||]; r_k = 0; r_n = 0 } in
        { at = t.clock; seq; run = ignore; run_i; arg = 0; st = Pending;
          kind = Run r }
    in
    (match e.kind with
    | Run r ->
        r.r_at <- at;
        r.r_n <- n;
        order_run r;
        arm e r 0
    | Classic | Pooled -> ());
    e.seq <- seq;
    e.run_i <- run_i;
    Heap.push t.heap e;
    t.live <- t.live + n
  end

let schedule t ~delay run =
  let delay = if delay < 0.0 then 0.0 else delay in
  schedule_at t (t.clock +. delay) run

let cancel _t e =
  match e.st with
  | Pending ->
      e.st <- Cancelled;
      (* The tombstone stays in the heap and is discarded when popped. *)
      _t.live <- _t.live - 1
  | Cancelled | Fired -> ()

let periodic t ~every f =
  let rec tick () = if f () then ignore (schedule t ~delay:every tick) in
  ignore (schedule t ~delay:every tick)

let advance t e =
  t.live <- t.live - 1;
  t.fired <- t.fired + 1;
  t.clock <- e.at

(* Fire the run member at the heap top. The record is re-keyed as the next
   member and sifted down in place — that member's key is the least of the
   run's remaining ones, so pop order matches n separate pooled events —
   or, after the last member, popped and shelved. Either way the callback
   and argument are read out first: the callback may schedule a new run
   into this very record. *)
let fire_member t e r =
  advance t e;
  let f = e.run_i in
  let j = e.arg in
  let k = r.r_k + 1 in
  if k < r.r_n then begin
    arm e r k;
    Heap.sift_down t.heap.Heap.a t.heap.Heap.len 0
  end
  else begin
    ignore (Heap.pop_top t.heap);
    r.r_at <- [||];
    e.run_i <- ignore_i;
    recycle t.free_runs e
  end;
  f j

let rec step t =
  if Heap.is_empty t.heap then false
  else
    let e = Heap.top t.heap in
    match e.kind with
    | Run r ->
        fire_member t e r;
        true
    | Pooled ->
        (* Pooled events are never cancelled. Read out the callback,
           recycle the record, then fire: the callback itself may schedule
           the next pooled event into this very record. *)
        ignore (Heap.pop_top t.heap);
        advance t e;
        let f = e.run_i in
        let a = e.arg in
        e.run_i <- ignore_i;
        recycle t.free e;
        f a;
        true
    | Classic -> (
        ignore (Heap.pop_top t.heap);
        match e.st with
        | Cancelled -> step t
        | Fired -> step t (* unreachable: a fired event is never re-pushed *)
        | Pending ->
            e.st <- Fired;
            advance t e;
            e.run ();
            true)

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some limit ->
      let continue = ref true in
      while !continue do
        if Heap.is_empty t.heap then begin
          continue := false;
          if t.clock < limit then t.clock <- limit
        end
        else
          let e = Heap.top t.heap in
          if e.st <> Pending then ignore (Heap.pop_top t.heap)
          else if e.at <= limit then ignore (step t)
          else begin
            continue := false;
            if t.clock < limit then t.clock <- limit
          end
      done

let pending t = t.live

let events_fired t = t.fired
