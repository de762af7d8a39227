module Int_table = Lk_engine.Int_table

type addr = int

(* Committed memory and the per-core buffers are read or written on
   every simulated load/store, so both live in the int-specialised
   open-addressing table rather than a polymorphic [Hashtbl]. *)
type t = {
  mem : Int_table.t;
  buffers : Int_table.t array;
  mutable ledger : Lk_engine.Ledger.t option;
  (* Cycles since the core's current attempt began, for the wasted-work
     attribution packed into [Spec_discard]; installed by the runtime,
     0 outside an attempt. *)
  mutable age_of : int -> int;
}

let create ~cores =
  if cores <= 0 then invalid_arg "Store.create: cores must be positive";
  {
    mem = Int_table.create ~capacity:4096 ();
    buffers =
      Array.init cores (fun _ -> Int_table.create ~capacity:64 ());
    ledger = None;
    age_of = (fun _ -> 0);
  }

let set_ledger t ledger = t.ledger <- Some ledger
let set_age_of t f = t.age_of <- f

let committed t addr = Int_table.find t.mem addr ~default:0

let poke t addr v = Int_table.replace t.mem addr v

let read t ~core ~speculative addr =
  let buf = t.buffers.(core) in
  if speculative && Int_table.mem buf addr then
    Int_table.find buf addr ~default:0
  else committed t addr

let write t ~core ~speculative addr v =
  if speculative then Int_table.replace t.buffers.(core) addr v
  else Int_table.replace t.mem addr v

(* Publish one buffered write; the committed table rides as [fold]'s
   accumulator, so a commit allocates no closure. *)
let publish addr v mem =
  Int_table.replace mem addr v;
  mem

let commit t ~core =
  let buf = t.buffers.(core) in
  let n = Int_table.length buf in
  ignore (Int_table.fold buf ~init:t.mem ~f:publish);
  Int_table.reset buf;
  (match t.ledger with
  | None -> ()
  | Some l -> Lk_engine.Ledger.emit l ~core Lk_engine.Ledger.Spec_publish ~arg:n);
  n

let discard t ~core =
  let buf = t.buffers.(core) in
  let n = Int_table.length buf in
  Int_table.reset buf;
  (match t.ledger with
  | None -> ()
  | Some l ->
    Lk_engine.Ledger.emit l ~core Lk_engine.Ledger.Spec_discard
      ~arg:(Lk_engine.Ledger.pack_discard ~writes:n ~age:(t.age_of core)));
  n

let buffered t ~core = Int_table.length t.buffers.(core)

let iter_buffered t ~core f = Int_table.iter t.buffers.(core) f

let iter_committed t f = Int_table.iter t.mem f
