(** Coordinator election algorithms.

    §4.2 describes a list-order election — the first live server in the
    startup-ordered list claims the role and assumes it on acknowledgments
    from half+1 of the remaining servers, with escalating timeouts tolerating
    [k] simultaneous crashes — and points at the classical alternatives
    (Garcia-Molina's bully, ring elections). All three are implemented here
    against an abstract transport so the failover bench can compare messages
    and latency. {!Node} does not use this module: it runs its own
    list-order claim over the real server mesh, which differs from
    {!List_order} in two ways. A voter acks the earliest-listed claimant it
    has seen (static list position) rather than the claimant of live rank
    0, and the server of live rank [r] claims after [r × election_timeout]
    where {!List_order} waits [(r+1) × base_timeout]. The two are kept
    apart because the node's timing is what its pinned replay digests
    record. *)

type message =
  | Claim of { from : string }  (** list-order: "I am taking over" *)
  | Claim_ack of { from : string; candidate : string; ok : bool }
  | Election of { from : string }  (** bully: probe to higher-ranked peers *)
  | Answer of { from : string }  (** bully: "I am alive, stand down" *)
  | Victory of { from : string }
  | Token of { candidate : string }  (** ring: circulating candidate id *)

(** Transport and timer hooks supplied by the harness. [send] may silently
    drop (dead peer, partition); algorithms must tolerate that via
    timeouts. *)
type env = {
  self : string;
  all : string list;  (** full membership in startup order, including self *)
  is_alive : string -> bool;  (** local failure-detector verdict *)
  send : dst:string -> message -> unit;
  schedule : delay:float -> (unit -> unit) -> unit;
  on_elected : string -> unit;  (** fired exactly once per participant *)
}

module type ALGORITHM = sig
  type t

  val name : string

  val create : env -> t

  val start : t -> unit
  (** Begin (called when the coordinator is suspected dead). *)

  val handle : t -> from:string -> message -> unit
  (** Feed an incoming message. *)
end

module List_order : ALGORITHM
(** The paper's protocol. Candidate rank r (position among live servers)
    waits [r * base_timeout], then claims; it wins on acks from a majority
    of live servers (counting itself). Peers ack the first live server in
    their own list and nack anyone else. *)

module Bully : ALGORITHM
(** Garcia-Molina 1982. A starter probes all higher-ranked peers; silence
    for [answer_timeout] means victory; an [Answer] defers to the higher
    peer (with a victory timeout to restart if it dies mid-election). *)

module Ring : ALGORITHM
(** Chang–Roberts style over the live-server ring ordered by rank: tokens
    carry the best candidate so far; a token returning to its candidate
    announces victory. *)

val base_timeout : float
(** Timeout unit used by all three (0.1 s). *)
