(** The benchmark suite as evaluated in the paper: STAMP without bayes
    (excluded there for its unpredictable behaviour), with both
    contention configurations of kmeans and vacation. *)

val all : Workload.profile list
(** Presentation order of the paper's figures: genome, intruder,
    kmeans, kmeans+, labyrinth, ssca2, vacation, vacation+, yada. *)

val high_contention : Workload.profile list
(** The workloads the paper calls high-contention (used for the
    extreme-case speedup claims): intruder, kmeans+, vacation+. *)

val extras : Workload.profile list
(** Profiles available outside the paper's evaluation set: bayes (which
    the paper excludes) and the classic microbenchmarks of {!Micro}. *)

val find : string -> Workload.profile option
(** Case-insensitive lookup by name, over [all] and [extras]. *)

val names : string list
(** Names of [all] (the paper's set only). *)

val extra_names : string list

val lookup : string -> (Workload.profile, string) result
(** {!find}, with the error every front-end reports for an unknown
    name: it lists each name {!find} accepts. *)

(** {1 Workload specs}

    The one way to construct a workload: a {!spec} names an application
    and a size class and optionally rescales it, and {!realise} turns
    it into a profile. {!Experiments} and the CLI build specs rather
    than poking at per-application constructors. *)

type size =
  | Low  (** The application's default configuration. *)
  | High  (** The high-contention ["+"] variant (kmeans+, vacation+). *)

type spec = {
  app : string;  (** Base application name, e.g. ["vacation"]. *)
  size : size;
  rw_scale : float;
      (** Multiplier on the read/write footprint ranges (floor 1,
          truncating — matches the historical integer scaling). *)
  txs_scale : float;
      (** Multiplier on transactions per thread (floor 4 when <> 1). *)
  tag : bool;
      (** Append ["-x<rw_scale>"] to the profile name (scaled-variant
          labelling, e.g. ["vacation-x2"]). *)
}

val spec :
  ?size:size -> ?rw_scale:float -> ?txs_scale:float -> ?tag:bool ->
  string -> spec
(** Defaults: [Low], no rescaling, [tag] iff either scale differs
    from 1. *)

val spec_of_name : string -> (spec, string) result
(** Parse a CLI-style workload name: a trailing ['+'] selects [High]
    (["kmeans+"] = kmeans at high contention). *)

val realise : spec -> (Workload.profile, string) result
(** Resolve the app over [all] and [extras] (case-insensitive) and
    apply the scaling. Errors on unknown apps and non-positive
    scales. *)
