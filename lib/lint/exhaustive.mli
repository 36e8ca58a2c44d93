(** R10 — handler exhaustiveness: every constructor of a protocol message
    variant (any >=4-constructor variant declared in the corpus) must appear
    in the Server/Node/Client dispatch matches. A match is a dispatch over a
    set when it mentions at least half of the set's constructors (min 2), so
    single-constructor projections stay exempt. *)

type vset = { vs_type : string; vs_file : string; vs_ctors : string list }

val variant_sets : (string * Parsetree.structure) list -> vset list
(** Harvest every >=4-constructor variant declaration from the parsed
    corpus, submodules included. *)

val run : Lint_ctx.t -> vset list -> Parsetree.structure -> unit
(** Scan one file's matches (active in core/server.ml, core/frontend.ml,
    core/client.ml, replication/node.ml and everything outside lib/),
    reporting [R10] findings into the context at the match location. *)
