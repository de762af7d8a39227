(** Message classes and serialisation sizes.

    Table I of the paper: flit size 16 bytes; a data-bearing message
    (64-byte line + header) is 5 flits, a control message 1 flit. The
    serialisation latency of a message is [flits - 1] extra cycles after
    the head flit, charged once (wormhole routing: the body follows the
    head through the network pipeline). *)

type class_ =
  | Control  (** Requests, acks, invalidations, NACK/reject, wake-up. *)
  | Data  (** Cache-line transfers and writebacks. *)

val flits : class_ -> int
(** Flits occupied by a message of this class (1 for control, 5 for
    data, per Table I). *)

val serialization_cycles : class_ -> int
(** Extra cycles beyond the head flit ([flits - 1]). *)
