(** Argument validators of the command-line front end.

    [bin/lockiller_sim] wraps each of these in a cmdliner converter, so
    every flag that takes the same kind of value rejects it with the
    same message. All functions are pure
    [string -> (value, message) result]. *)

val positive_int : what:string -> string -> (int, string) result
(** Strictly positive integer; [what] names the flag in the message
    (e.g. ["--jobs must be positive (got 0)"]). *)

val non_negative_int : what:string -> string -> (int, string) result
(** Integer >= 0, same message shapes with "non-negative". *)

val scale : what:string -> string -> (float, string) result
(** A size multiplier: a finite float > 0. NaN and infinities are
    rejected (e.g. ["--scale must be finite and positive (got nan)"]),
    since no run length can be derived from them. *)

val cores : what:string -> string -> (int, string) result
(** A machine size: an integer in [1, {!Config.max_cores}]. The error
    message names the supported range (e.g. ["--cores must be a core
    count in 1-1024 (got 2000)"]). *)

val cache_profile : string -> (Config.cache_profile, string) result
(** One of [typical], [small], [large] (see
    {!Config.cache_profile_of_id}). *)

val writable_path : string -> (string, string) result
(** A path we will later open for writing: non-empty, its parent
    directory exists, and the path itself does not name a directory. *)
