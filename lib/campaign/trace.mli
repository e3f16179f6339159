(** The ["komodo-trace/1"] envelope: the one on-disk format for every
    replayable campaign trace (fault, vault and smp campaigns, explore
    counterexamples).

    A trace is JSONL. The first non-blank line is the header, an object
    with ["schema"] (always {!schema}), ["kind"] (the campaign that
    wrote it), ["seed"] (the seed the ops replay against), then the
    kind's own fields: ["npages"], the armed ["bug"] (a
    {!Komodo_core.Bugs} name or null), and e.g. smp's ["cpus"]. Every
    later non-blank line is one op in the kind's op codec. This module
    owns the envelope and the file I/O; the kind's driver decodes its
    header fields and ops. Nothing here raises: every malformed input
    is an [Error]. *)

module Json = Komodo_telemetry.Json

val schema : string
(** ["komodo-trace/1"]. *)

val to_lines :
  kind:string -> seed:int -> (string * Json.t) list -> Json.t list ->
  string list
(** The header line (schema, kind, seed, then the given fields in
    order) and one line per op. *)

val of_lines :
  kind:string -> string list -> (int * Json.t * Json.t list, string) result
(** The seed, the whole header object, and the parsed op lines. Fails
    unless the header carries {!schema} and exactly [kind]. *)

val is_trace : string list -> bool
(** Whether the first non-blank line is a {!schema} header, of any
    kind. *)

val load : string -> (string list, string) result
(** A trace file's lines. *)

val save : string -> string list -> (unit, string) result
(** Write a trace file, one line each. *)
