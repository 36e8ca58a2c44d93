(* Shared per-file lint context: scoping predicates (computed once per file
   instead of once per ident), the [@corona.allow] suppression machinery, the
   same-file [module M = Path] alias table, and the findings accumulator.

   Both the per-file rule pass (Rules) and the interprocedural passes
   (Reach / Pairing / Exhaustive) report into the owning file's context, so
   in-source suppressions apply uniformly: a phase-2 finding lands on a
   source line, and an [@corona.allow "R8"] attribute spanning that line
   silences it exactly like a per-file finding. *)

open Parsetree

(* --- string helpers ----------------------------------------------------- *)

(* First-character skip via [String.index_from_opt] instead of re-scanning
   every position: O(n + occurrences·m) instead of the old O(n·m). *)
let contains hay needle =
  let ln = String.length needle in
  if ln = 0 then true
  else
    let lh = String.length hay in
    let c0 = needle.[0] in
    let rec from i =
      if i + ln > lh then false
      else
        match String.index_from_opt hay i c0 with
        | None -> false
        | Some j ->
            if j + ln > lh then false
            else String.sub hay j ln = needle || from (j + 1)
    in
    from 0

let has_suffix file suffix =
  let lf = String.length file and ls = String.length suffix in
  lf >= ls && String.sub file (lf - ls) ls = suffix

(* A file under lib/<dir>/ for any [dirs] member. Files outside lib/ (the
   fixture corpus) are never "under" anything, so scoped rules stay active
   there. *)
let under_lib file dirs =
  List.exists (fun d -> contains file ("lib/" ^ d ^ "/")) dirs

(* --- Longident / pattern helpers ---------------------------------------- *)

let rec flatten : Longident.t -> string list = function
  | Lident s -> [ s ]
  | Ldot (l, s) -> flatten l @ [ s ]
  | Lapply _ -> []

let rec last2 = function
  | [ a; b ] -> Some (a, b)
  | _ :: tl -> last2 tl
  | [] -> None

let pat_name p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) -> Some txt
  | _ -> None

let handler_name name =
  let starts p = String.length name >= String.length p && String.sub name 0 (String.length p) = p in
  starts "on_" || starts "recv" || contains name "handle" || contains name "dispatch"
  || contains name "deliver" || contains name "process"

(* --- the context -------------------------------------------------------- *)

type t = {
  file : string;
  (* rule scoping, precomputed once per file *)
  random_exempt : bool; (* R1: Sim.Rng's own implementation *)
  poly_active : bool; (* R3: protocol-state layers *)
  codec_internal : bool; (* R5/R8: the sanctioned serialization layer *)
  handler_active : bool; (* R6 *)
  transfer_hot : bool; (* R7 *)
  mutable findings : Finding.t list;
  mutable suppressions : (string * int * int) list; (* rule, first line, last line *)
  mutable bindings : string list; (* enclosing value bindings, innermost first *)
  aliases : (string, string list) Hashtbl.t; (* module M = Path, same file *)
}

let create ~file =
  {
    file;
    random_exempt = has_suffix file "sim/rng.ml";
    poly_active =
      not
        (under_lib file
           [ "sim"; "net"; "storage"; "ordering"; "workload"; "baseline"; "lint" ]);
    codec_internal = has_suffix file "proto/message.ml" || has_suffix file "proto/codec.ml";
    handler_active =
      not (under_lib file [ "sim"; "net"; "storage"; "ordering"; "workload"; "lint" ]);
    transfer_hot =
      has_suffix file "core/server.ml" || has_suffix file "core/frontend.ml"
      || has_suffix file "core/group.ml"
      || under_lib file [ "replication" ]
      || not (contains file "lib/");
    findings = [];
    suppressions = [];
    bindings = [];
    aliases = Hashtbl.create 8;
  }

let report ctx ~loc ~rule ?ident message =
  let pos = loc.Location.loc_start in
  let ident =
    match ident with
    | Some i -> i
    | None -> ( match List.rev ctx.bindings with outer :: _ -> outer | [] -> "")
  in
  ctx.findings <-
    Finding.make ~file:ctx.file ~line:pos.pos_lnum
      ~col:(pos.pos_cnum - pos.pos_bol)
      ~rule ~ident message
    :: ctx.findings

let add_finding ctx f = ctx.findings <- f :: ctx.findings

let attr_rule (a : attribute) =
  if a.attr_name.txt <> "corona.allow" then None
  else
    match a.attr_payload with
    | PStr
        [
          {
            pstr_desc =
              Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (rule, _, _)); _ }, _);
            _;
          };
        ] ->
        Some (Ok rule)
    | _ -> Some (Error a.attr_loc)

let record_allows ctx attrs (span : Location.t) =
  List.iter
    (fun a ->
      match attr_rule a with
      | None -> ()
      | Some (Ok rule) ->
          ctx.suppressions <-
            (rule, span.loc_start.pos_lnum, span.loc_end.pos_lnum) :: ctx.suppressions
      | Some (Error loc) ->
          report ctx ~loc ~rule:"LINT" "malformed [@corona.allow]: payload must be a rule-id string")
    attrs

let expand ctx = function
  | c0 :: rest as path -> (
      match Hashtbl.find_opt ctx.aliases c0 with Some base -> base @ rest | None -> path)
  | [] -> []

let suppressed ctx (f : Finding.t) =
  List.exists
    (fun (rule, l0, l1) -> rule = f.rule && l0 <= f.line && f.line <= l1)
    ctx.suppressions

(* All findings reported into this context so far, source order, with
   in-source suppressions applied. *)
let harvest ctx = List.filter (fun f -> not (suppressed ctx f)) (List.rev ctx.findings)
