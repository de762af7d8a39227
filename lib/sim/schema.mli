(** Single source of truth for the result-JSON / cache schema version.

    Every serialised result embeds this version, and the on-disk cache
    partitions entries by it. Bump {!version} (and extend the history in schema.ml)
    whenever the result record or its serialisation changes shape. *)

val version : int
(** The schema version this build reads and writes. *)

val version_string : string

val check : int -> (unit, string) result
(** [check v] accepts only the current {!version}. Future versions get
    a "produced by a newer build" error, past versions a "predates this
    build, re-run to regenerate" error naming what changed since. *)
