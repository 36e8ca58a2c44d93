(** R8 — hot-path allocation: reachability from fan-out roots over the call
    graph, and the [--why R8] chain printer. *)

type t
(** Reachable-set with, per function, the discovering hot root and BFS
    parent. *)

val analyze : Callgraph.t -> t
(** BFS from every hot root ([@@corona.hot] or [Fabric.transmit_many]
    caller), never traversing into [@@corona.cold] functions. *)

val findings : Callgraph.t -> t -> Finding.t list
(** One [R8] finding per allocation sink inside a reachable function, at the
    sink's source location (so [@corona.allow "R8"] on the allocation
    suppresses it). *)

val why : Callgraph.t -> t -> string -> (string, string) result
(** [why g reach fn] renders the call chain from the discovering hot root to
    [fn] (exact key or unique [.name] suffix), plus [fn]'s recorded sinks;
    [Error] explains an unknown, ambiguous, or unreachable target. *)
