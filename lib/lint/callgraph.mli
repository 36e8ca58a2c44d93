(** Whole-corpus call graph over every parsed root.

    Definition keys are qualified through dune's wrapped-library namespace
    ([Corona.Server.handle_bcast], [Proto.Codec.Writer.u8]); files without a
    dune [(library ...)] stanza are standalone top-level modules
    ([R8_deep.build_frames]). Reference resolution is syntactic: same-library
    sibling module first, then another library's namespace / a standalone
    root module, then a submodule of the current file; bare names resolve
    innermost-submodule-first within the unit. [module M = Path] aliases are
    expanded. Unresolved references produce no edge.

    Hot roots are functions carrying [@@corona.hot], plus any function that
    calls [Fabric.transmit_many]. [@@corona.cold] cuts the graph: R8
    reachability never traverses into a cold function (used where the event
    loop re-enters itself and a synchronous-call interpretation would mark
    the whole module hot). *)

type sink_kind = Encode | Alloc | List_build | Printf_alloc

type sink = { sk_kind : sink_kind; sk_what : string; sk_line : int; sk_col : int }

type def = {
  d_key : string;  (** fully qualified, e.g. ["Corona.Server.handle_bcast"] *)
  d_name : string;
  d_file : string;
  d_line : int;
  mutable d_hot : bool;
  mutable d_cold : bool;
  mutable d_callees : string list;  (** resolved def keys, reference order *)
  mutable d_sinks : sink list;  (** R8-relevant allocation sites, source order *)
}

type t

val build : (string * Parsetree.structure) list -> t
(** Build the graph from (file, parsed structure) pairs: collect every
    definition first, then resolve references, collect allocation sinks, and
    mark hot/cold functions. *)

val find : t -> string -> def option

val defs_in_order : t -> def list
(** Every definition in corpus discovery order (file walk order, then source
    order within a file) — the iteration order all reports use, so output is
    deterministic. *)

val resolve_query : t -> string -> (def, string) result
(** Resolve a user-supplied [--why] target: an exact key, or a unique
    [.name] suffix of one. *)
