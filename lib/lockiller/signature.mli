(** Overflow signatures (OfRdSig / OfWrSig of Fig 5).

    Inspired by LogTM-SE: a Bloom filter over cache-line addresses kept
    at the LLC, recording the lock transaction's read and write set
    lines that overflowed the L1 in HTMLock mode. Conservative by
    construction — membership tests may report false positives (extra
    rejects, never lost conflicts), exactly like the hardware. *)

type t

val create : ?bits:int -> ?hashes:int -> unit -> t
(** Default geometry: 2048 bits, 4 hash functions — the scale of a
    hardware signature register file. [bits] must be a power of two. *)

val add : t -> Lk_coherence.Types.line -> unit

val test : t -> Lk_coherence.Types.line -> bool
(** No false negatives: after [add s l], [test s l] is always true. *)

val clear : t -> unit

val population : t -> int
(** Set bits (for occupancy statistics). *)

val is_empty : t -> bool
