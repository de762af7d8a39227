(** Invariant catalogue over live simulator state.

    Three families of checks, all side-effect free and evaluable at any
    event boundary of a run:

    - {b state predicates} ({!check_state}, named in {!names}) —
      properties that must hold of the architectural state between any
      two events: directory/L1 agreement and SWMR (delegated to
      {!Lk_coherence.Protocol.check_invariants}), every speculative
      write buffered by an HTM transaction backed by an L1-resident
      [tx_write] line, at most one core in HTMLock (TL/STL) mode, and
      lock-word sanity (TTAS value is 0/1, at most one believer, word
      set while held).
    - {b event predicates} ({!check_event}) — properties of a ledger
      event given the state at emission time: commits only from live
      HTM transactions (the dirty-commit check), [hlbegin]/[hlend] only
      from lock-transaction modes, lock-acquire only when the lock is
      held, park only when actually parked.
    - {b end-of-run checks} ({!check_end}) — properties of a quiescent
      finished run: every core idle, no buffered speculation, no parked
      cores, zero watchdog rescues (the no-lost-wakeup check — a
      per-state version would false-positive on wake messages still in
      network flight, so it is deliberately an end-of-run property),
      wake table drained, arbiter and signatures released, lock free,
      plus a final {!check_state} and the serializability oracle.

    Checks never mutate the runtime; they only read the introspection
    accessors of {!Lk_lockiller.Runtime}. *)

type violation = { invariant : string; detail : string }
(** [invariant] is the stable name of the violated predicate (one of
    {!names}, or "event-mode" / "dirty-commit" / "wakeup" /
    "lost-wakeup" / "quiescence" / "serializability" for the event and
    end-of-run families); [detail] is a human-readable diagnosis. *)

val pp_violation : Format.formatter -> violation -> unit

val violation_to_string : violation -> string

val names : string list
(** Names of the state predicates, in evaluation order. *)

val check_state : Lk_lockiller.Runtime.t -> violation option
(** First violated state predicate, if any. Sound at any point where
    no event is mid-dispatch (the protocol mutates all metadata for one
    request within a single event). *)

val check_event :
  Lk_lockiller.Runtime.t ->
  kind:Lk_engine.Ledger.kind ->
  core:int ->
  arg:int ->
  violation option
(** Validate one ledger event against the state at emission time.
    Intended as a {!Lk_engine.Ledger.set_sink} body. *)

val check_end : Lk_lockiller.Runtime.t -> violation list
(** All end-of-run violations of a run whose threads have finished.
    Runs the serializability oracle when one is enabled. *)
