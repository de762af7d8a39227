(** Argument validators shared by the command-line front-ends.

    [bin/lockiller_sim] (cmdliner) and [bench/main] (hand-rolled argv
    loop) parse the same kinds of values; these checks keep their error
    messages identical and in one place. All functions are pure
    [string -> (value, message) result] so either front-end can wrap
    them in its own plumbing. *)

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
