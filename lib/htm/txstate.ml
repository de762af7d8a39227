type mode = Idle | Htm | Tl | Stl | Sw

type t = {
  core : Lk_coherence.Types.core_id;
  mutable mode : mode;
  mutable epoch : int;
  mutable insts : int;
  mutable progress : int;
  mutable attempt : int;
  mutable switch_tried : bool;
  mutable pending_abort : Reason.t option;
  mutable tx_seq : int;
  mutable static_priority : int;
  mutable rv : int;
}

let create core =
  {
    core;
    mode = Idle;
    epoch = 0;
    insts = 0;
    progress = 0;
    attempt = 0;
    switch_tried = false;
    pending_abort = None;
    tx_seq = 0;
    static_priority = 0;
    rv = 0;
  }

let in_critical t = t.mode <> Idle

let reset_attempt t =
  t.insts <- 0;
  t.progress <- 0;
  t.switch_tried <- false

let begin_htm t =
  t.mode <- Htm;
  t.pending_abort <- None;
  reset_attempt t

let abort t reason =
  t.epoch <- t.epoch + 1;
  t.pending_abort <- Some reason;
  t.mode <- Idle;
  t.insts <- 0;
  t.progress <- 0

let finish t =
  t.mode <- Idle;
  t.attempt <- 0;
  t.pending_abort <- None;
  t.tx_seq <- t.tx_seq + 1;
  reset_attempt t

let pp_mode ppf m =
  Format.pp_print_string ppf
    (match m with
    | Idle -> "idle"
    | Htm -> "htm"
    | Tl -> "tl"
    | Stl -> "stl"
    | Sw -> "sw")
