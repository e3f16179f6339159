(** A minimal, dependency-free JSON value type, printer, and parser —
    just enough for JSONL traces and metrics dumps. Integers stay
    distinct from floats (cycle counters and page numbers are exact). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val equal : t -> t -> bool

val to_string : t -> string
(** Compact single-line rendering (no interior newlines: one value per
    line is valid JSONL). *)

exception Parse_error of string

val parse_exn : string -> t
(** @raise Parse_error on malformed input. *)

val parse : string -> (t, string) result

(** Accessors for picking results apart in tests and tooling. *)

val member : string -> t -> t option
val to_int_opt : t -> int option
val to_string_opt : t -> string option
val to_list_opt : t -> t list option

(** Result-returning decoders for trace codecs: every error names the
    offending field or element. *)

val field : string -> (t -> 'a option) -> t -> ('a, string) result
(** [field name conv obj]: member [name] of [obj], converted. *)

val int_field : string -> t -> (int, string) result
val ints_field : string -> t -> (int list, string) result
(** A member holding a list of integers. *)

val all : what:string -> ('a -> ('b, string) result) -> 'a list -> ('b list, string) result
(** Decode every element, naming the first bad one as
    [what ^ " " ^ index]. *)

val name_field :
  string -> (string -> 'a option) -> t -> ('a option, string) result
(** An optional named value: absent or [null] is [None]; a string must
    be accepted by the parser. *)

val name : ('a -> string) -> 'a option -> t
(** The inverse of {!name_field}. *)
