(** R9 — resource pairing: per-function walk checking that acquire/release
    pairs ([Locks.acquire]/[release], WAL batch begin/flush, channel
    open/close) cannot be separated by an exception edge — an explicit
    raise or a call from a curated may-raise set while the resource is
    held.

    Result-aware for [match Locks.acquire ... with `Granted -> ...] (held
    only in grant branches), [Fun.protect ~finally] shields releases on all
    exits, raise sites inside [try ... with] are assumed handled, and a
    function that acquires and returns without releasing is treated as
    ownership transfer (by-design lock handoff), not a leak. *)

val run : Lint_ctx.t -> Parsetree.structure -> unit
(** Walk every toplevel (and submodule-level) binding of one parsed file,
    reporting [R9] findings into the context at the escaping edge's
    location. *)
