(* Hooks the transactional layer (htm / lockiller) installs into the
   coherence protocol. The protocol detects conflicts using L1/LLC
   transactional metadata; *policy* — who wins, what an overflow does,
   what the LLC signatures contain — lives behind this interface, so
   the same protocol engine runs everything from plain requester-win
   best-effort HTM to full LockillerTM. *)

type verdict =
  | Abort_holder
      (* Original requester-win outcome: the transaction holding the
         line dies and the request proceeds. *)
  | Reject_requester
      (* Recovery mechanism: the request is withdrawn with a NACK-like
         reply and the holder's state is untouched. *)

type eviction_directive =
  | Abort_tx of int
      (* The victim's transaction was aborted (capacity overflow); the
         payload is extra latency charged to the triggering request. *)
  | Spill of { write : bool; extra : int }
      (* Lock-transaction overflow: move the line into the LLC overflow
         signature (OfWrSig when [write]) and continue. [extra] covers
         e.g. a successful switchingMode round-trip to the LLC. *)

type t = {
  context : core:Types.core_id -> epoch:int -> Types.party;
      (* Requester context at decision time. [Types.no_party] means
         the request is stale: the issuing transaction aborted after
         issue and the protocol must drop the request without side
         effects. *)
  party_of : Types.core_id -> Types.party;
      (* Live execution mode/priority of a core (used for holders). *)
  resolve :
    requester:Types.core_id ->
    requester_party:Types.party ->
    holder:Types.core_id ->
    holder_party:Types.party ->
    verdict;
      (* Conflict arbitration (Fig 4). Must never return [Abort_holder]
         for a [Lock_tx] holder — lock transactions are irrevocable. *)
  abort :
    victim:Types.core_id ->
    aggressor:Types.core_id ->
    aggressor_mode:Types.mode ->
    line:Types.line ->
    unit;
      (* Perform the software-visible side of a conflict abort (classify
         the reason, roll back the value layer, schedule the retry). The
         implementation must call [Protocol.abort_flush] to clear the
         victim's cache metadata. Capacity-induced aborts (L1 or LLC
         eviction of a transactional line) go through [on_tx_eviction]
         instead. *)
  on_tx_eviction :
    core:Types.core_id -> view:L1_cache.view -> eviction_directive;
      (* A transactional line must leave the victim core's L1 (capacity).
         Decide between aborting (best-effort HTM), spilling to the LLC
         signatures (TL mode), or switching to STL first and then
         spilling (switchingMode). *)
  llc_check :
    requester:Types.core_id ->
    requester_mode:Types.mode ->
    line:Types.line ->
    write:bool ->
    would_be_exclusive:bool ->
    verdict option;
      (* HTMLock overflow-signature filter at the LLC. [None] = no
         opinion (normal flow); [Some Reject_requester] = NACK the
         request. Never returns [Some Abort_holder]. *)
  on_reject : requester:Types.core_id -> by:Types.outcome -> unit;
      (* A reject reply ([by], an outcome) is on its way to
         [requester]; used to populate wake-up tables. *)
  tx_age : Types.core_id -> int;
      (* Cycles since the core's current transactional attempt began
         (xbegin / swbegin / HTMLock entry), 0 when it is not in one.
         Feeds the ledger's causal-attribution packing
         ({!Lk_engine.Ledger.pack_attr}) so every conflict record
         carries the victim's wasted-work age. Must not allocate. *)
}

(* A client that never detects transactions: plain MESI. Useful for the
   CGL system and for protocol unit tests. *)
let plain =
  {
    context = (fun ~core:_ ~epoch:_ -> Types.non_tx_party);
    party_of = (fun _ -> Types.non_tx_party);
    resolve =
      (fun ~requester:_ ~requester_party:_ ~holder:_ ~holder_party:_ ->
        Abort_holder);
    abort = (fun ~victim:_ ~aggressor:(_ : Types.core_id) ~aggressor_mode:_ ~line:_ -> ());
    on_tx_eviction = (fun ~core:_ ~view:_ -> Abort_tx 0);
    llc_check =
      (fun ~requester:_ ~requester_mode:_ ~line:_ ~write:_
           ~would_be_exclusive:_ -> None);
    on_reject = (fun ~requester:_ ~by:_ -> ());
    tx_age = (fun _ -> 0);
  }
