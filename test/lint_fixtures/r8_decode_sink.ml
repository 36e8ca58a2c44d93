(* R8 corpus, decode side: copying header bytes out of a received frame on
   a hot dispatch path allocates a fresh buffer per message, like any other
   hot-path allocation. *)

let dispatch_copied buf =
  let header = Bytes.sub buf 0 8 in
  ignore header
  [@@corona.hot]

(* Silenced: a cold diagnostic dump is allowed to copy. *)
let dump_frame buf =
  let body = (Bytes.sub_string buf 8 (Bytes.length buf - 8) [@corona.allow "R8"]) in
  ignore body
  [@@corona.hot]
