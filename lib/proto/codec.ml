(* Writer: an amortized-O(1) byte sink over a growable [Bytes.t] with direct
   big-endian stores — no per-char closures, no intermediate [Buffer]
   chunks. The emitted byte sequence is identical to the historical
   [Buffer]-based writer (the golden-bytes tests in test_proto pin it). *)
module Writer = struct
  (* A counting writer stores nothing and only advances [len]: the simulator
     charges CPUs, NICs and disks by wire size alone, so measuring a message
     is the same encoder run without the byte stores. *)
  type t = { mutable buf : Bytes.t; mutable len : int; counting : bool }

  let create ?(initial_capacity = 256) () =
    { buf = Bytes.create (max 16 initial_capacity); len = 0; counting = false }

  let counting () = { buf = Bytes.empty; len = 0; counting = true }

  (* Make room for [extra] more bytes; [false] on a counting writer, which
     skips the store. *)
  let ensure t extra =
    if t.counting then false
    else begin
      let needed = t.len + extra in
      let cap = Bytes.length t.buf in
      if needed > cap then begin
        let cap' = ref (max 16 (cap * 2)) in
        while needed > !cap' do
          cap' := !cap' * 2
        done;
        let buf' = Bytes.create !cap' in
        Bytes.blit t.buf 0 buf' 0 t.len;
        t.buf <- buf'
      end;
      true
    end

  let u8 t v =
    if v < 0 || v > 0xFF then invalid_arg "Codec.Writer.u8: out of range";
    if ensure t 1 then Bytes.unsafe_set t.buf t.len (Char.unsafe_chr v);
    t.len <- t.len + 1

  let u16 t v =
    if v < 0 || v > 0xFFFF then invalid_arg "Codec.Writer.u16: out of range";
    if ensure t 2 then Bytes.set_uint16_be t.buf t.len v;
    t.len <- t.len + 2

  let u32 t v =
    if v < 0 || v > 0xFFFFFFFF then invalid_arg "Codec.Writer.u32: out of range";
    if ensure t 4 then begin
      Bytes.set_uint16_be t.buf t.len (v lsr 16);
      Bytes.set_uint16_be t.buf (t.len + 2) (v land 0xFFFF)
    end;
    t.len <- t.len + 4

  let i64 t v =
    if ensure t 8 then Bytes.set_int64_be t.buf t.len v;
    t.len <- t.len + 8

  let int_as_i64 t v = i64 t (Int64.of_int v)

  let f64 t v = i64 t (Int64.bits_of_float v)

  let bool t v = u8 t (if v then 1 else 0)

  let string t s =
    let n = String.length s in
    u32 t n;
    if ensure t n then Bytes.blit_string s 0 t.buf t.len n;
    t.len <- t.len + n

  let list t enc xs =
    u32 t (List.length xs);
    List.iter (enc t) xs

  let option t enc = function
    | None -> u8 t 0
    | Some v ->
        u8 t 1;
        enc t v

  let size t = t.len

  let contents t =
    if t.counting then invalid_arg "Codec.Writer.contents: counting writer";
    Bytes.sub_string t.buf 0 t.len
end

module Reader = struct
  type t = { data : string; mutable pos : int }

  exception Truncated

  exception Malformed of string

  let of_string data = { data; pos = 0 }

  let need t n = if t.pos + n > String.length t.data then raise Truncated

  let u8 t =
    need t 1;
    let v = Char.code (String.unsafe_get t.data t.pos) in
    t.pos <- t.pos + 1;
    v

  let u16 t =
    need t 2;
    let v = String.get_uint16_be t.data t.pos in
    t.pos <- t.pos + 2;
    v

  let u32 t =
    need t 4;
    let hi = String.get_uint16_be t.data t.pos in
    let lo = String.get_uint16_be t.data (t.pos + 2) in
    t.pos <- t.pos + 4;
    (hi lsl 16) lor lo

  let i64 t =
    need t 8;
    let v = String.get_int64_be t.data t.pos in
    t.pos <- t.pos + 8;
    v

  let int_as_i64 t = Int64.to_int (i64 t)

  let f64 t = Int64.float_of_bits (i64 t)

  let bool t =
    match u8 t with
    | 0 -> false
    | 1 -> true
    | n -> raise (Malformed (Printf.sprintf "bool tag %d" n))

  let string t =
    let len = u32 t in
    need t len;
    let s = String.sub t.data t.pos len in
    t.pos <- t.pos + len;
    s

  let list t dec =
    let n = u32 t in
    let rec go acc k = if k = 0 then List.rev acc else go (dec t :: acc) (k - 1) in
    go [] n

  let option t dec =
    match u8 t with
    | 0 -> None
    | 1 -> Some (dec t)
    | n -> raise (Malformed (Printf.sprintf "option tag %d" n))

  let remaining t = String.length t.data - t.pos

  let at_end t = remaining t = 0
end

let encoded_size enc v =
  let w = Writer.counting () in
  enc w v;
  Writer.size w

let roundtrip enc dec v =
  let w = Writer.create () in
  enc w v;
  dec (Reader.of_string (Writer.contents w))
