(** Deterministic discrete-event simulation engine.

    The engine maintains a virtual clock and a priority queue of scheduled
    callbacks. Events at equal timestamps fire in scheduling order, which —
    together with {!Rng} — makes every simulation fully deterministic. *)

type t

type time = float
(** Simulated time, in seconds. *)

type event_id
(** Handle of a scheduled event, usable with {!cancel}. Cancellation is
    O(1): the handle carries its own state flag, so there is no side table
    and no lookup on the engine's hot pop path. *)

val create : ?seed:int64 -> unit -> t
(** [create ?seed ()] returns an engine whose clock is at [0.0]. [seed]
    (default [1L]) initializes the engine's root {!Rng}. *)

val now : t -> time
(** Current virtual time. *)

val rng : t -> Rng.t
(** The engine's root random stream. Components should {!Rng.split} it. *)

val schedule : t -> delay:time -> (unit -> unit) -> event_id
(** [schedule t ~delay f] runs [f] at [now t +. delay]. Negative delays are
    clamped to zero. *)

val schedule_at : t -> time -> (unit -> unit) -> event_id
(** [schedule_at t at f] runs [f] at absolute time [at] (clamped to [now]). *)

val schedule_pooled : t -> at:time -> (int -> unit) -> int -> unit
(** [schedule_pooled t ~at f i] runs [f i] at absolute time [at] (clamped
    to [now]), using a recycled event record from the engine's freelist:
    the steady-state fan-out loop schedules without allocating. Pooled
    events are not cancellable (no handle escapes, which is exactly what
    makes recycling safe); callers needing revocation keep a guard of
    their own (e.g. a host-epoch check) and use [f]'s argument to index
    it. Ordering is identical to {!schedule_at} at equal timestamps. *)

val schedule_run : t -> at:float array -> n:int -> (int -> unit) -> unit
(** [schedule_run t ~at ~n f] schedules a {e run}: the [n] pooled events
    [f j] at [at.(j)], for [j = 0 .. n-1], fired in the same order, at the
    same clock values, as the [n] calls [schedule_pooled t ~at:at.(j) f j]
    made in order of [j]. Each member's key is fixed now: times earlier
    than [now] are clamped in place, and ties with any other event break by
    scheduling order, as they would for the separate calls: the run takes
    one seqno, and every event scheduled before it has a smaller one, every
    event after it a larger one.

    Only the run's earliest unfired member sits in the event heap. The
    engine orders the members by [(at.(j), j)] — an O(n) check when [at] is
    already in that order, an in-place sort otherwise — and firing one
    member re-keys the same heap record as the next. Because that record
    is always the run's least unfired member, pop order is exactly that of
    the separate events, while the heap holds one entry per run instead of
    one per member. [at] is the caller's scratch: the engine reads [at.(j)]
    until member [j] fires, so the caller may reuse a slot from then on but
    not before. {!pending} and {!events_fired} count the [n] members as [n]
    events. Like pooled events, runs are not cancellable, and their records
    are recycled along with the engine's ordering scratch. *)

val cancel : t -> event_id -> unit
(** Cancel a pending event in O(1). Cancelling an event that already fired,
    or cancelling the same event twice, is a no-op — in particular it never
    double-decrements the {!pending} count. *)

val periodic : t -> every:time -> (unit -> bool) -> unit
(** [periodic t ~every f] calls [f] every [every] seconds, starting after one
    period, until [f] returns [false]. *)

val step : t -> bool
(** Fire the single earliest pending event. Returns [false] when the queue is
    empty. *)

val run : ?until:time -> t -> unit
(** Drain the event queue. With [~until], stops (without firing them) at the
    first event strictly later than [until] and advances the clock to
    [until]. *)

val pending : t -> int
(** Number of scheduled, uncancelled events. *)

val events_fired : t -> int
(** Number of events executed since creation — the denominator for
    wall-clock events/second reporting in scaling benchmarks. *)
