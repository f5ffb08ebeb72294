(** Experiment tables as data.

    The benchmark harness builds one table per experiment in the style of
    a paper's evaluation section: a caption, a header row, typed cells.
    {!print} renders it as aligned text and {!to_json} as one JSON
    object, so both views come from the same rows. *)

type cell =
  | Int of int
  | Float of { v : float; dec : int }  (** printed with [dec] decimals *)
  | Text of string

type t = { title : string; header : string list; rows : cell list list }
(** Every row must be exactly as wide as [header]. *)

val num : int -> cell
(** An integer; printed with thousands separators ("12,345"). *)

val flt : ?dec:int -> float -> cell
(** A float printed with [dec] decimals (default 2); nan prints as "-". *)

val ratio : float -> float -> cell
(** [a /. b] as a two-decimal float; nan (printed "-") when [b = 0]. *)

val cell_text : cell -> string
(** The text a cell prints as. *)

val print : t -> unit
(** Render to stdout. Column widths adapt to content. Raises
    [Invalid_argument] if a row is not as wide as the header. *)

val to_json : t -> string
(** [{"title": …, "header": […], "rows": [[…], …]}]. Numbers go out raw
    (no separators, full precision), nan and infinities as [null], text
    as escaped JSON strings. Raises [Invalid_argument] if a row is not as
    wide as the header. *)
