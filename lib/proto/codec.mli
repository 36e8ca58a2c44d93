(** Byte-stream codec.

    Corona's shared-state model is deliberately type-blind: "the shared state
    of a group is a set of byte streams tagged with object identifiers"
    (§3.1). This module is the byte-stream encoding used both by the wire
    protocol and by applications to serialize their shared objects. All
    integers are big-endian; strings and blobs are length-prefixed. *)

module Writer : sig
  type t

  val create : ?initial_capacity:int -> unit -> t

  val counting : unit -> t
  (** A writer that stores nothing and only advances its {!size}: the same
      encoder run measures a value without producing its bytes.
      {!contents} raises on it. *)

  val u8 : t -> int -> unit
  (** @raise Invalid_argument outside [0, 255]. *)

  val u16 : t -> int -> unit

  val u32 : t -> int -> unit
  (** Encodes 32-bit unsigned; values must fit. *)

  val i64 : t -> int64 -> unit

  val int_as_i64 : t -> int -> unit

  val f64 : t -> float -> unit

  val bool : t -> bool -> unit

  val string : t -> string -> unit
  (** u32 length prefix + bytes. *)

  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
  (** u32 count prefix + elements. *)

  val option : t -> (t -> 'a -> unit) -> 'a option -> unit

  val size : t -> int

  val contents : t -> string
  (** @raise Invalid_argument on a {!counting} writer. *)
end

module Reader : sig
  type t

  exception Truncated
  (** Raised when reading past the end of the buffer. *)

  exception Malformed of string
  (** Raised on invalid tags or out-of-range values. *)

  val of_string : string -> t

  val u8 : t -> int

  val u16 : t -> int

  val u32 : t -> int

  val i64 : t -> int64

  val int_as_i64 : t -> int

  val f64 : t -> float

  val bool : t -> bool

  val string : t -> string

  val list : t -> (t -> 'a) -> 'a list

  val option : t -> (t -> 'a) -> 'a option

  val remaining : t -> int

  val at_end : t -> bool
end

val encoded_size : (Writer.t -> 'a -> unit) -> 'a -> int
(** Size in bytes of the encoding of a value, from a {!Writer.counting}
    pass: no bytes are produced. *)

val roundtrip : (Writer.t -> 'a -> unit) -> (Reader.t -> 'a) -> 'a -> 'a
(** Encode then decode (for tests). *)
