(** Compact binary wire codec.

    Every value that crosses a process boundary (UDP datagrams in the
    live runtime, simulated messages whose size the engine accounts,
    stable-storage slots whose bytes experiments count) is serialized by
    hand through this module instead of [Marshal]: the encoding is
    3-10x smaller, several times faster to produce, and — critically for
    the live runtime, which reads datagrams from the network — the
    decoder is bounds-checked and total: malformed input yields [None]
    at the {!of_string_opt} boundary, never a segfault or an unbounded
    allocation.

    Format conventions (see DESIGN.md "Wire format"):

    - signed integers: zigzag + LEB128 varint (1 byte for small
      non-negative values, at most 9 bytes for the full 63-bit range);
    - lengths and counts: plain LEB128 varint, rejected if negative;
    - strings: length-prefixed bytes;
    - lists: count-prefixed elements, order-preserving;
    - options: one tag byte (0 = [None], 1 = [Some]);
    - variants: one leading tag byte per constructor.

    Writers are growable byte buffers (cheaper than {!Buffer.t}: the
    varint writer reserves its worst case once and stores bytes without
    per-byte bounds checks); callers can prepend their own framing bytes
    with {!write_u8} and compose codecs without intermediate strings. *)

exception Error of string
(** Raised by readers on malformed input: truncation, overlong varints,
    bad tags, counts exceeding the remaining bytes, trailing garbage.
    Never escapes {!of_string_opt}/{!of_string_result}. *)

val error : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Error} with a formatted message — for codecs built on top of
    this module that detect domain-level malformation (bad variant tag,
    out-of-range field) mid-decode. *)

(** {1 Writing} *)

type writer
(** Growable byte buffer with a write cursor. *)

val writer : ?cap:int -> unit -> writer
(** Fresh buffer ([cap] defaults to 128). *)

val clear : writer -> unit
(** Reset the cursor to 0, keeping the allocation — for reusable
    per-connection scratch writers. *)

val length : writer -> int
(** Bytes written so far. *)

val contents : writer -> string
(** Copy of the bytes written so far. *)

val unsafe_bytes : writer -> Bytes.t
(** The writer's underlying scratch buffer; only indices
    [0 .. length w - 1] are meaningful, and any later write may
    reallocate or overwrite it. For zero-copy handoff to [Unix.sendto]
    and friends — do not retain across writes. *)

val truncate : writer -> int -> unit
(** Roll the cursor back to an earlier {!length} mark, discarding the
    bytes written since — how the bounded batch encoder un-writes the
    payload that overflowed its byte budget.
    @raise Invalid_argument if the mark is negative or past the cursor. *)

val append_writer : writer -> src:writer -> unit
(** Append [src]'s written bytes to the destination in one blit.
    Encode-once-send-many paths (live multisend, ring forwarding) encode
    into a scratch writer and blit it into each per-destination buffer
    instead of re-running the codec per recipient. *)

(** {2 Expert writer primitives}

    For fused codec fast paths (see [Payload.write]): reserve the worst
    case once, store raw bytes at [length w ..], then advance. Any
    encoding produced this way must be byte-identical to the
    combinator-based encoding of the same value. *)

val unsafe_reserve : writer -> int -> Bytes.t
(** [unsafe_reserve w n] guarantees capacity for [n] more bytes and
    returns the (possibly reallocated) underlying buffer. Write to
    indices [length w .. length w + n - 1] only, then call
    {!unsafe_advance}. The result is invalidated by any other write. *)

val unsafe_advance : writer -> int -> unit
(** Bump the cursor over bytes stored after {!unsafe_reserve}. *)

val write_u8 : writer -> int -> unit
(** Low byte of the argument, as-is. Variant tags use this. *)

val write_varint : writer -> int -> unit
(** Signed integer, zigzag + LEB128: covers the whole [int] range
    including [min_int]/[max_int]. *)

val write_uvarint : writer -> int -> unit
(** Non-negative integer (lengths, counts), plain LEB128.
    @raise Invalid_argument on a negative argument (writer bug). *)

val write_string : writer -> string -> unit
(** Length-prefixed bytes. *)

val write_option : (writer -> 'a -> unit) -> writer -> 'a option -> unit

val write_list : (writer -> 'a -> unit) -> writer -> 'a list -> unit
(** Count-prefixed, preserves order. *)

(** {1 Reading} *)

type reader
(** Cursor over an immutable byte range; every read is bounds-checked
    against the range's limit. *)

val reader : ?pos:int -> ?len:int -> string -> reader
(** Read window over [s.[pos .. pos+len-1]] (defaults: whole string).
    @raise Invalid_argument if the window lies outside the string. *)

val reader_reset : reader -> ?pos:int -> ?len:int -> string -> unit
(** Re-aim an existing reader at a new window, allocating nothing — for
    pooled per-socket readers on the live receive path.
    @raise Invalid_argument if the window lies outside the string. *)

val remaining : reader -> int

val at_end : reader -> bool

(** {2 Expert reader primitives}

    For fused codec fast paths: inspect the raw bytes at the cursor
    (after checking {!remaining}), then seek past them. A fast path
    built on these must accept exactly the inputs the combinator-based
    decoder accepts, with the same result — fall back to the
    combinators for anything else. *)

val unsafe_buf : reader -> string
(** The underlying string. Valid indices are
    [unsafe_pos r .. unsafe_pos r + remaining r - 1]; the caller must
    bounds-check against {!remaining} before reading. *)

val unsafe_pos : reader -> int

val unsafe_seek : reader -> int -> unit
(** Set the absolute cursor position; never seek past
    [unsafe_pos r + remaining r]. *)

val expect_end : reader -> unit
(** @raise Error if bytes remain — top-level decoders call this so that
    trailing garbage is rejected rather than silently ignored. *)

val read_u8 : reader -> int

val read_varint : reader -> int

val read_uvarint : reader -> int

val read_string : reader -> string

val read_option : (reader -> 'a) -> reader -> 'a option

val read_list : (reader -> 'a) -> reader -> 'a list
(** Rejects counts larger than the remaining byte count before
    allocating anything (each element costs at least one byte), so a
    hostile count cannot force a huge allocation. *)

(** {1 Whole-value helpers} *)

val to_string : ?cap:int -> (writer -> 'a -> unit) -> 'a -> string
(** Encode one value into a fresh string. [cap] pre-sizes the buffer
    (default 128) — pass an estimate on hot paths to skip the growth
    copies. *)

val of_string_opt : (reader -> 'a) -> string -> 'a option
(** Decode one value spanning the whole string; [None] on any
    malformation (including trailing bytes). *)

val of_string_result : (reader -> 'a) -> string -> ('a, string) result
(** Like {!of_string_opt} but carries the error message. *)

val of_string_exn : (reader -> 'a) -> string -> 'a
(** Like {!of_string_opt} for trusted input (our own stable storage,
    values we just encoded). @raise Error on malformation. *)
