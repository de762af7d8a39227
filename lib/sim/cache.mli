(** Content-addressed on-disk cache of {!Runner.result} records.

    Every simulation is deterministic given its full configuration, so
    a result can be reused across processes: the cache key is an MD5
    digest of a canonical description of everything that affects the
    outcome — schema tag, seed, scale, machine fingerprint
    ({!Config.fingerprint}), placement, cycle limit,
    system composition, every workload-profile field, and the thread
    count. Entries are the {!Runner.result_to_json} encoding, one file
    per entry under [dir/v<schema>/<digest>.json].

    The [on_runtime] hook of {!Runner.options} cannot be fingerprinted;
    callers that set it must bypass the cache (the {!Experiments}
    harness never sets it on cached jobs).

    Bump {!schema_version} whenever the key encoding, the
    {!Runner.result} record or anything feeding a simulation changes
    meaning — old entries then become unreachable (and [clear] deletes
    them wholesale). *)

type t

val schema_version : string

val default_dir : unit -> string
(** [$LOCKILLER_CACHE_DIR], else [$XDG_CACHE_HOME/lockiller], else
    [$HOME/.cache/lockiller], else [.lockiller-cache] in the working
    directory. *)

val create : ?schema:string -> dir:string -> unit -> t
(** Open (and lazily create) the cache rooted at [dir]. [schema]
    defaults to {!schema_version}; tests override it to exercise
    invalidation. *)

val dir : t -> string

val key :
  t ->
  options:Runner.options ->
  sysconf:Lk_lockiller.Sysconf.t ->
  workload:Lk_stamp.Workload.profile ->
  threads:int ->
  string
(** Hex digest naming this job's entry. *)

val find : t -> string -> Runner.result option
(** Look a key up, counting a hit or a miss. Unreadable or corrupt
    entries count as misses. *)

val store : t -> string -> Runner.result -> unit
(** Write-through (atomic rename); errors are swallowed — a read-only
    cache directory degrades to a no-op cache, never a crash. *)

(** {1 Counters} — this process's cache traffic. *)

val hits : t -> int
val misses : t -> int
val stores : t -> int

val persist_counters : t -> unit
(** Fold this process's counters into the cumulative [counters] file
    under the schema directory (read-modify-write, best effort) and
    reset them, so [lockiller_sim cache stats] can report lifetime
    traffic. *)

(** {1 Inspection and eviction} — directory-level, for the CLI. *)

type disk_stats = {
  entries : int;  (** Entry files under the current schema. *)
  bytes : int;  (** Their total size. *)
  stale_entries : int;  (** Entry files under other schema tags. *)
  lifetime_hits : int;
  lifetime_misses : int;
  lifetime_stores : int;
}

val disk_stats : t -> disk_stats

val clear : t -> int
(** Delete every entry (all schema versions) and the counters; returns
    how many entry files were removed. *)
