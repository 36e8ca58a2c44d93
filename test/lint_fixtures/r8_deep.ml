(* R8 corpus, callee side: nothing here is hot by itself. The findings
   appear because r8_hot_path.ml reaches these functions from its roots —
   for [alloc_two_deep] the chain is cross-file and two calls deep
   (fan_entry -> build_frames -> alloc_two_deep). *)

let alloc_two_deep n = Bytes.create n

let build_frames msgs =
  let scratch = alloc_two_deep 64 in
  ignore scratch;
  List.map String.uppercase_ascii msgs

(* Silenced: stands in for a preallocated buffer the hot path may reuse. *)
let pooled_frame n = (Bytes.create n [@corona.allow "R8"])
