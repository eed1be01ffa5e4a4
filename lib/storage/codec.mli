(** Binary codec shared by WAL records and checkpoint images (DESIGN §9).

    Little-endian, length-prefixed, one tag byte per variant; CRC32-framed at
    the record layer.  The encoding is stable: recovery reads images written
    by earlier runs of the engine. *)

exception Corrupt of string
(** Raised by every decoder on malformed input (bad tag, truncation,
    implausible length, failed schema validation). *)

val crc32 : ?init:int -> string -> int
(** IEEE 802.3 reflected CRC32 (init/xorout [0xFFFFFFFF]), one lookup per
    byte in an immutable 256-entry table. *)

val crc32_sub : string -> pos:int -> len:int -> int
(** {!crc32} of [String.sub s pos len], without the copy.
    @raise Invalid_argument when the range is outside [s]. *)

(** {1 Writer} *)

type writer

val writer : unit -> writer
val contents : writer -> string
val u8 : writer -> int -> unit
val u32 : writer -> int -> unit
val i64 : writer -> int -> unit
val f64 : writer -> float -> unit
val str : writer -> string -> unit
val bool : writer -> bool -> unit
val option : writer -> (writer -> 'a -> unit) -> 'a option -> unit
val list : writer -> (writer -> 'a -> unit) -> 'a list -> unit
val array : writer -> (writer -> 'a -> unit) -> 'a array -> unit

(** {1 Reader} *)

type reader = { data : string; mutable pos : int }

val reader : string -> reader
val remaining : reader -> int
val at_end : reader -> bool
val r_u8 : reader -> int
val r_u32 : reader -> int
val r_i64 : reader -> int
val r_i64_bits : reader -> int64
val r_f64 : reader -> float
val r_str : reader -> string
val r_bool : reader -> bool
val r_option : reader -> (reader -> 'a) -> 'a option
val r_list : reader -> (reader -> 'a) -> 'a list
val r_array : reader -> (reader -> 'a) -> 'a array

(** {1 Engine types} *)

val value : writer -> Value.t -> unit
val r_value : reader -> Value.t
val tuple : writer -> Tuple.t -> unit
val r_tuple : reader -> Tuple.t
val column_type : writer -> Schema.column_type -> unit
val r_column_type : reader -> Schema.column_type
val schema : writer -> Schema.t -> unit
val r_schema : reader -> Schema.t

(** {1 Framing}

    A frame is [[u32 payload_len][u32 crc32(payload)][payload]]. *)

type frame_error =
  | Torn  (** remaining bytes cannot hold a whole frame (clean truncation) *)
  | Bad_crc  (** complete frame whose checksum fails (bit rot / torn write) *)

val frame : string -> string

val framed : ?prefix:string -> ?size_hint:int -> (writer -> unit) -> string
(** [framed ~prefix encode] is [prefix ^ frame payload], where [payload] is
    what [encode] writes, built in one buffer: the payload is copied once
    and no intermediate string is made.  [size_hint] pre-sizes the buffer
    (the expected payload bytes). *)

val read_frame : reader -> (string, frame_error) result
(** On success advances past the frame; on error leaves [pos] unchanged so
    the caller can record where the valid prefix ends. *)
