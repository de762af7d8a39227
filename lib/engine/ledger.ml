type kind =
  | Tx_begin
  | Tx_commit
  | Tx_abort
  | Nack
  | Reject
  | Abort_kill
  | Park
  | Wake
  | Lock_acquire
  | Lock_release
  | Hl_begin
  | Hl_end
  | Switch_granted
  | Switch_denied
  | Spill
  | Spec_publish
  | Spec_discard
  | Sw_begin
  | Sw_commit
  | Sw_abort
  | Clock_advance

let kinds =
  [
    Tx_begin; Tx_commit; Tx_abort; Nack; Reject; Abort_kill; Park; Wake;
    Lock_acquire; Lock_release; Hl_begin; Hl_end; Switch_granted;
    Switch_denied; Spill; Spec_publish; Spec_discard; Sw_begin; Sw_commit;
    Sw_abort; Clock_advance;
  ]

let kind_code = function
  | Tx_begin -> 0
  | Tx_commit -> 1
  | Tx_abort -> 2
  | Nack -> 3
  | Reject -> 4
  | Abort_kill -> 5
  | Park -> 6
  | Wake -> 7
  | Lock_acquire -> 8
  | Lock_release -> 9
  | Hl_begin -> 10
  | Hl_end -> 11
  | Switch_granted -> 12
  | Switch_denied -> 13
  | Spill -> 14
  | Spec_publish -> 15
  | Spec_discard -> 16
  | Sw_begin -> 17
  | Sw_commit -> 18
  | Sw_abort -> 19
  | Clock_advance -> 20

let kind_table = Array.of_list kinds

let kind_of_code c =
  if c >= 0 && c < Array.length kind_table then Some kind_table.(c) else None

let kind_label = function
  | Tx_begin -> "xbegin"
  | Tx_commit -> "commit"
  | Tx_abort -> "abort"
  | Nack -> "nack"
  | Reject -> "reject"
  | Abort_kill -> "kill"
  | Park -> "park"
  | Wake -> "wake"
  | Lock_acquire -> "lock-acquire"
  | Lock_release -> "lock-release"
  | Hl_begin -> "hlbegin"
  | Hl_end -> "hlend"
  | Switch_granted -> "switch-granted"
  | Switch_denied -> "switch-denied"
  | Spill -> "spill"
  | Spec_publish -> "spec-publish"
  | Spec_discard -> "spec-discard"
  | Sw_begin -> "swbegin"
  | Sw_commit -> "swcommit"
  | Sw_abort -> "swabort"
  | Clock_advance -> "clock"

(* Attribution packing. Conflict records ([Nack], [Reject],
   [Abort_kill]) and abort records ([Tx_abort], [Sw_abort]) carry the
   responsible core and the victim's cycles-since-begin in one int arg:
   11 bits of [who + 1] (cores are bounded by 1024; -1 = environmental)
   plus the age in the bits above, with aborts keeping their reason
   code in the low 4 bits. 63-bit ints absorb any realistic age. *)

let attr_who_bits = 11
let attr_who_mask = (1 lsl attr_who_bits) - 1
let reason_bits = 4
let reason_mask = (1 lsl reason_bits) - 1

let pack_attr ~who ~age =
  ((who + 1) land attr_who_mask) lor (Int.max 0 age lsl attr_who_bits)

let attr_who arg = (arg land attr_who_mask) - 1
let attr_age arg = arg lsr attr_who_bits

let pack_abort ~reason ~who ~age =
  (reason land reason_mask)
  lor (((who + 1) land attr_who_mask) lsl reason_bits)
  lor (Int.max 0 age lsl (reason_bits + attr_who_bits))

let abort_reason arg = arg land reason_mask
let abort_who arg = ((arg lsr reason_bits) land attr_who_mask) - 1
let abort_age arg = arg lsr (reason_bits + attr_who_bits)

let discard_bits = 16
let discard_mask = (1 lsl discard_bits) - 1

let pack_discard ~writes ~age =
  Int.min writes discard_mask lor (Int.max 0 age lsl discard_bits)

let discard_writes arg = arg land discard_mask
let discard_age arg = arg lsr discard_bits

(* Four machine words per record — time, core, code, arg — in one flat
   preallocated array, so [emit] writes four slots and touches nothing
   else. *)
type t = {
  sim : Sim.t;
  data : int array;
  cap : int;
  mutable next : int;  (* total recorded *)
  (* Live taps on [emit]: [sink] for the invariant sanitizer, [tap] for
     the causal profiler's streaming fold. Each [None] costs one
     immediate-vs-block branch per event, like [Sim]'s hooks. *)
  mutable sink : (time:int -> core:int -> kind:kind -> arg:int -> unit) option;
  mutable tap : (time:int -> core:int -> kind:kind -> arg:int -> unit) option;
}

let create ?(capacity = 65536) sim =
  if capacity <= 0 then invalid_arg "Ledger.create: capacity must be positive";
  { sim; data = Array.make (4 * capacity) 0; cap = capacity; next = 0;
    sink = None; tap = None }

let set_sink t sink = t.sink <- sink
let set_tap t tap = t.tap <- tap

let emit t ~core kind ~arg =
  let base = 4 * (t.next mod t.cap) in
  let time = Sim.now t.sim in
  t.data.(base) <- time;
  t.data.(base + 1) <- core;
  t.data.(base + 2) <- kind_code kind;
  t.data.(base + 3) <- arg;
  t.next <- t.next + 1;
  (match t.sink with None -> () | Some f -> f ~time ~core ~kind ~arg);
  match t.tap with None -> () | Some f -> f ~time ~core ~kind ~arg

let capacity t = t.cap
let recorded t = t.next
let length t = Int.min t.next t.cap
let dropped t = Int.max 0 (t.next - t.cap)

let clear t =
  Array.fill t.data 0 (Array.length t.data) 0;
  t.next <- 0

let iter t f =
  let first = Int.max 0 (t.next - t.cap) in
  for i = first to t.next - 1 do
    let base = 4 * (i mod t.cap) in
    f ~time:t.data.(base) ~core:t.data.(base + 1)
      ~kind:kind_table.(t.data.(base + 2))
      ~arg:t.data.(base + 3)
  done

type entry = { time : int; core : int; kind : kind; arg : int }

let entries t =
  let out = ref [] in
  iter t (fun ~time ~core ~kind ~arg ->
      out := { time; core; kind; arg } :: !out);
  List.rev !out

let dump ppf t =
  if dropped t > 0 then
    Format.fprintf ppf "# %d earlier events dropped@." (dropped t);
  iter t (fun ~time ~core ~kind ~arg ->
      Format.fprintf ppf "%d %d %s %d@." time core (kind_label kind) arg)
