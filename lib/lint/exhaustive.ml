(* R10: handler exhaustiveness. Every constructor of a protocol message
   variant must appear in the Server/Node/Client dispatch matches — a
   wildcard that silently drops an unwired message type should fail the
   lint, not a 3 a.m. sim run.

   Variant sets are harvested generically from the parsed corpus: every
   [type t = A | B | ...] declaration with >= 4 constructors (which covers
   [Proto.Message.request]/[response] and [Smsg.t], and skips the small
   two-way enums like [role] that partial matches legitimately project).
   A match counts as a *dispatch* over a set when it mentions at least half
   of the set's constructors (min 2): intentional single-constructor
   projections ([match r with Deliver d -> ... | _ -> ()]) stay exempt,
   while a dispatch that handles most-but-not-all constructors behind a
   wildcard is exactly the bug this rule exists for.

   Scope: the dispatch layers (core/server.ml, core/frontend.ml,
   core/client.ml, replication/node.ml) plus everything outside lib/
   (fixtures). *)

module C = Lint_ctx
module I = Ast_iterator
open Parsetree

type vset = { vs_type : string; vs_file : string; vs_ctors : string list }

(* Every >=4-constructor variant declaration in the corpus, submodules
   included. *)
let variant_sets units =
  let acc = ref [] in
  let add file (td : type_declaration) =
    match td.ptype_kind with
    | Ptype_variant cds when List.length cds >= 4 ->
        acc :=
          {
            vs_type = td.ptype_name.txt;
            vs_file = file;
            vs_ctors = List.map (fun cd -> cd.pcd_name.txt) cds;
          }
          :: !acc
    | _ -> ()
  in
  List.iter
    (fun (file, str) ->
      let rec items l =
        List.iter
          (fun si ->
            match si.pstr_desc with
            | Pstr_type (_, tds) -> List.iter (add file) tds
            | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure l'; _ }; _ } -> items l'
            | Pstr_recmodule mbs ->
                List.iter
                  (fun mb ->
                    match mb.pmb_expr.pmod_desc with Pmod_structure l' -> items l' | _ -> ())
                  mbs
            | _ -> ())
          l
      in
      items str)
    units;
  List.rev !acc

let active file =
  C.has_suffix file "core/server.ml" || C.has_suffix file "core/frontend.ml"
  || C.has_suffix file "core/client.ml"
  || C.has_suffix file "replication/node.ml"
  || not (C.contains file "lib/")

let rec pat_ctor_names acc p =
  match p.ppat_desc with
  | Ppat_construct ({ txt; _ }, sub) ->
      let acc =
        match C.flatten txt with [] -> acc | l -> List.nth l (List.length l - 1) :: acc
      in
      (match sub with Some (_, sp) -> pat_ctor_names acc sp | None -> acc)
  | Ppat_or (a, b) -> pat_ctor_names (pat_ctor_names acc a) b
  | Ppat_alias (sp, _) | Ppat_constraint (sp, _) | Ppat_exception sp | Ppat_lazy sp
  | Ppat_open (_, sp) ->
      pat_ctor_names acc sp
  | Ppat_tuple l | Ppat_array l -> List.fold_left pat_ctor_names acc l
  | Ppat_record (fields, _) -> List.fold_left (fun acc (_, sp) -> pat_ctor_names acc sp) acc fields
  | Ppat_variant (_, Some sp) -> pat_ctor_names acc sp
  | _ -> acc

let check_cases (ctx : C.t) sets loc cases =
  let used = List.concat_map (fun c -> pat_ctor_names [] c.pc_lhs) cases in
  List.iter
    (fun s ->
      let mentioned = List.filter (fun c -> List.mem c used) s.vs_ctors in
      let missing = List.filter (fun c -> not (List.mem c used)) s.vs_ctors in
      let total = List.length s.vs_ctors in
      let threshold = max 2 ((total + 1) / 2) in
      if List.length mentioned >= threshold && missing <> [] then
        C.report ctx ~loc ~rule:"R10"
          (Printf.sprintf
             "dispatch over `%s` (%s) handles %d of %d constructors — missing %s: add explicit \
              cases (a wildcard silently drops unwired message types)"
             s.vs_type s.vs_file (List.length mentioned) total
             (String.concat ", " (List.map (fun c -> "`" ^ c ^ "`") missing))))
    sets

(* Run over one file, reporting into [ctx]; [sets] comes from the whole
   corpus via {!variant_sets}. *)
let run (ctx : C.t) sets (str : structure) =
  if active ctx.file && sets <> [] then begin
    let expr iter e =
      (match e.pexp_desc with
      | Pexp_match (_, cases) | Pexp_function cases -> check_cases ctx sets e.pexp_loc cases
      | _ -> ());
      I.default_iterator.expr iter e
    in
    let it = { I.default_iterator with expr } in
    it.I.structure it str
  end
