(* Every transaction increments one shared counter: the maximum-
   contention, minimum-footprint stress test. *)
let counter =
  {
    Workload.name = "micro-counter";
    txs_per_thread = 100;
    reads_per_tx = (0, 0);
    writes_per_tx = (1, 1);
    hot_lines = 1;
    hot_fraction = 1.0;
    zipf_skew = 0.0;
    shared_lines = 16;
    private_lines = 0;
    compute_per_op = 1;
    pre_compute = (5, 15);
    post_compute = (5, 15);
    fault_prob = 0.0;
    barrier_every = None;
  }

(* Search-mostly index: wide read sets over a large shared structure
   with few, scattered updates, the HTM-friendly case. *)
let btree =
  {
    Workload.name = "micro-btree";
    txs_per_thread = 40;
    reads_per_tx = (12, 24);
    (* root-to-leaf walks *)
    writes_per_tx = (0, 1);
    hot_lines = 128;
    hot_fraction = 0.15;
    zipf_skew = 0.9;
    (* upper levels are hot *)
    shared_lines = 4096;
    private_lines = 16;
    compute_per_op = 2;
    pre_compute = (10, 40);
    post_compute = (10, 40);
    fault_prob = 0.0;
    barrier_every = None;
  }

(* Producer/consumer queue: short transactions all touching the two
   hot end-pointers. *)
let queue =
  {
    Workload.name = "micro-queue";
    txs_per_thread = 80;
    reads_per_tx = (1, 2);
    writes_per_tx = (1, 2);
    hot_lines = 2;
    (* head and tail pointers *)
    hot_fraction = 0.8;
    zipf_skew = 0.0;
    shared_lines = 256;
    private_lines = 16;
    compute_per_op = 1;
    pre_compute = (10, 30);
    post_compute = (10, 30);
    fault_prob = 0.0;
    barrier_every = None;
  }

let all = [ counter; btree; queue ]
