(* The three workloads. Each [run] boots a fresh machine or store,
   warms it up, runs a fixed number of timed rounds, makes the
   workload's recovery call and checks the outputs: one "rep". *)

open Lvm_vm
module Store = Lvm_store.Store
module Workload = Lvm_store.Workload
module Snap = Lvm_obs.Snapshot
module Hist = Lvm_obs.Histogram
module Splitmix = Lvm_fault.Splitmix

exception Check_failed of string

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Check_failed msg)) fmt

let now_ns = Span.now_ns
let fdiv a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* {1 What one rep measures} *)

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Simulated commit latencies: exact, or a histogram's bucket counts. *)
type commits = Exact of int array | Buckets of { bounds : int array; counts : int array }

type metric = string * string * float  (* name, unit, value *)

type rep = {
  setup_ns : int;
  cal_ns : float;  (* mean host time of the rep's calibration chunks *)
  round_ns : ints;
      (* host time of each timed round; kept off the OCaml heap so that
         holding many reps does not inflate the heap figures *)
  ops : int;  (* completed: committed writes + served reads *)
  attempted : int;
  failed : int;  (* failed + shed + dropped *)
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  sim_cycles : int;  (* simulated wall cycles of the timed phase *)
  commits : commits;
  recovery_ns : int;
  layer : metric list;  (* simulated per-layer metrics *)
  prefix_print : Digest.t;  (* simulated state after [prefix] rounds *)
  print : Digest.t;  (* every simulated metric of the rep *)
}

(* Observability state at the start of the timed phase. *)
type mark = { snap : Snap.t; hists : (string * int array * int) list }

let mark k =
  { snap = Kernel.snapshot k;
    hists =
      List.map
        (fun h -> (Hist.name h, Hist.counts h, Hist.sum h))
        (Lvm_obs.Ctx.histograms (Kernel.obs k)) }

(* [(bounds, count deltas, sum delta)] of a histogram since [m]. *)
let hist_delta k m name =
  match
    List.find_opt (fun h -> Hist.name h = name) (Lvm_obs.Ctx.histograms (Kernel.obs k))
  with
  | None -> ([| 0 |], [| 0; 0 |], 0)
  | Some h ->
    let counts = Hist.counts h in
    let sum0 =
      match List.find_opt (fun (n, _, _) -> n = name) m.hists with
      | None -> 0
      | Some (_, c0, s0) ->
        Array.iteri (fun i c -> counts.(i) <- counts.(i) - c) c0;
        s0
    in
    (Hist.bounds h, counts, Hist.sum h - sum0)

(* Per-layer metrics read from the program's own counters over the
   timed phase. [txns] is committed write transactions (rounds on the
   logged-write workload). *)
let machine_layer k m ~ops ~txns =
  let d = Snap.delta ~before:m.snap ~after:(Kernel.snapshot k) in
  let g = Snap.get d in
  let count name x = (name, "count", float_of_int x) in
  let per_op name unit x = (name, unit, fdiv x ops) in
  let fifo_b, fifo_c, _ = hist_delta k m "logger.fifo_occupancy" in
  let _, _, bus_wait = hist_delta k m "bus.wait_cycles" in
  let cpus = Kernel.cpus k in
  [ per_op "machine.write_throughs_per_op" "count/op" (g "write_throughs");
    ("machine.l1_miss_pct", "%", 100. *. fdiv (g "l1_misses") (g "l1_hits" + g "l1_misses"));
    per_op "logger.records_per_op" "count/op" (g "log_records");
    count "logger.overloads" (g "overloads");
    per_op "logger.overload_cycles_per_op" "cycles/op" (g "overload_cycles");
    ( "logger.fifo_occupancy_p99", "records",
      Stats.hist_quantile ~bounds:fifo_b ~counts:fifo_c 0.99 );
    count "logger.records_lost" (g "log_records_lost");
    per_op "bus.wait_cycles_per_op" "cycles/op" bus_wait;
    per_op "bus.contention_cycles_per_op" "cycles/op" (g "bus.contention_cycles") ]
  @ List.init 4 (fun i ->
        ( Printf.sprintf "cpu%d.bus_wait_cycles" i, "cycles",
          float_of_int
            (if cpus = 1 then if i = 0 then bus_wait else 0
             else g (Printf.sprintf "cpu.bus_wait_cycles{cpu=%d}" i)) ))
  @ [ count "kernel.page_faults" (g "page_faults");
      count "kernel.logging_faults" (g "logging_faults_pmt" + g "logging_faults_log_addr");
      count "log.extent_switches" (g "log.extent_switches");
      count "log.extents_recycled" (g "log.extents_recycled");
      ("rvm.wal_forces_per_txn", "count/txn", fdiv (g "rvm.wal_forces") txns);
      count "store.overloaded" (g "store.overloaded");
      ("mvcc.applied_per_commit", "count/txn", fdiv (g "mvcc.applied") txns);
      count "mvcc.snapshots" (g "mvcc.snapshots");
      count "mvcc.pruned" (g "mvcc.pruned");
      ( "mvcc.snapshot_age", "ts",
        float_of_int (Snap.get (Kernel.snapshot k) "mvcc.snapshot_age") ) ]

let digest_of values =
  Digest.string
    (String.concat ";" (List.map (fun (n, _, v) -> Printf.sprintf "%s=%h" n v) values))

(* The simulated state: every counter plus the wall clock. *)
let sim_state_print k =
  Digest.string
    (String.concat ";"
       (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v)
          (("time", Kernel.max_time k) :: Snap.to_alist (Kernel.snapshot k))))

(* The recovery call, repeated until [recovery_budget_ns] have passed
   (at least once): its median host time and its first result. Both
   recovery calls are idempotent: the repeats leave the same state. *)
let recovery_budget_ns = 20_000_000

let timed_recovery f =
  let start = now_ns () in
  let result = f () in
  let rec go times =
    if now_ns () - start >= recovery_budget_ns then times
    else begin
      let a = now_ns () in
      ignore (f ());
      go ((now_ns () - a) :: times)
    end
  in
  let times = go [ now_ns () - start ] in
  (int_of_float (Stats.quantile_int (Array.of_list times) 0.5), result)

(* The timed phase shared by every workload: [round r] runs round [r]
   and the host clock brackets each one. *)
type timed = {
  t_round_ns : ints;
  t_cal_ns : float;
  t_minor : float;
  t_promoted : float;
  t_minor_coll : int;
  t_major_coll : int;
  t_prefix : Digest.t;
}

(* Host time between calibration chunks; a chunk takes under 1 ms. *)
let chunk_every_ns = 10_000_000

let timed_phase ~rounds ~prefix ~prefix_print ~round =
  let round_ns = Bigarray.Array1.create Bigarray.int Bigarray.c_layout rounds in
  let pre = ref (Digest.string "") in
  let cal = ref 0 and chunks = ref 0 and next_chunk = ref 0 in
  let g0 = Gc.quick_stat () in
  for r = 0 to rounds - 1 do
    if now_ns () >= !next_chunk then begin
      cal := !cal + Calibrate.chunk ();
      incr chunks;
      next_chunk := now_ns () + chunk_every_ns
    end;
    Span.set_round (r + 1);
    let sp = Span.enter Span.Round in
    let a = now_ns () in
    round r;
    round_ns.{r} <- now_ns () - a;
    Span.leave sp;
    if r = prefix - 1 then pre := prefix_print ()
  done;
  let g1 = Gc.quick_stat () in
  Span.set_round 0;
  { t_round_ns = round_ns;
    t_cal_ns = float_of_int !cal /. float_of_int !chunks;
    t_minor = g1.minor_words -. g0.minor_words;
    t_promoted = g1.promoted_words -. g0.promoted_words;
    t_minor_coll = g1.minor_collections - g0.minor_collections;
    t_major_coll = g1.major_collections - g0.major_collections;
    t_prefix = !pre }

(* {1 logged_write_burst}

   One CPU, the seed datapath (V0 records, no coalescing), a 64 KiB
   logged region with every page touched before timing. A round is
   compute (50-150 cycles), a 16-word sequential burst, 8 rewrites of
   one hot word and a log sync (the commit boundary); the seed draws
   the compute, the burst start and the hot word. The log is recycled with
   [truncate_suffix] when the next round might not fit; every round
   logs the same number of records, so the recycling points, and the
   log retained at the end, do not depend on the seed. *)
module Logged_write = struct
  let region_bytes = 64 * 1024
  let words = region_bytes / 4
  let burst = 16
  let hot_rewrites = 8
  let compute_min = 50
  let compute_max = 150
  let log_bytes = 256 * 1024
  let round_bytes = (burst + hot_rewrites) * Lvm_machine.Log_record.bytes
  let cycle = log_bytes / round_bytes  (* rounds between recycles *)
  let rounds = 10 * cycle
  let warmup = cycle
  let prefix = cycle / 2

  let value r i = ((r * 64) + i) land 0x3fffffff

  let run ~seed ~rounds =
    let rng = Splitmix.create ~seed in
    let n = warmup + rounds in
    let starts = Array.init n (fun _ -> Splitmix.int rng ~bound:(words - burst)) in
    let hots = Array.init n (fun _ -> Splitmix.int rng ~bound:words) in
    let computes =
      Array.init n (fun _ -> compute_min + Splitmix.int rng ~bound:(compute_max - compute_min + 1))
    in
    let model = Array.make words 0 in
    Gc.full_major ();
    let t0 = now_ns () in
    let sp = Span.enter Span.Setup in
    let k = Kernel.create ~frames:1024 () in
    Span.set_clock (fun () -> Kernel.time k);
    let space = Kernel.create_space k in
    let seg = Kernel.create_segment k ~size:region_bytes in
    let region = Kernel.create_region k seg in
    let log = Lvm_log.create k ~size:log_bytes in
    let logseg = Lvm_log.segment log in
    Kernel.set_region_log k region (Some logseg);
    let base = Kernel.bind k space region in
    let write w v =
      let s = Span.enter Span.Kernel_write_word in
      Kernel.write_word k space (base + (4 * w)) v;
      model.(w) <- v;
      Span.leave s
    in
    let lat = Array.make rounds 0 in
    let round ~timed r =
      let c0 = Kernel.time k in
      if Lvm_log.room log < round_bytes then begin
        let s = Span.enter Span.Log_truncate_suffix in
        Lvm_log.truncate_suffix log ~new_end:0;
        Span.leave s
      end;
      let s = Span.enter Span.Kernel_compute in
      Kernel.compute k computes.(r);
      Span.leave s;
      let start = starts.(r) and hot = hots.(r) in
      for i = 0 to burst - 1 do
        write (start + i) (value r i)
      done;
      for i = 0 to hot_rewrites - 1 do
        write hot (value r (burst + i))
      done;
      let s = Span.enter Span.Kernel_sync_log in
      Kernel.sync_log k logseg;
      Span.leave s;
      if timed then lat.(r - warmup) <- Kernel.time k - c0
    in
    for p = 0 to (region_bytes / Lvm_machine.Addr.page_size) - 1 do
      write (p * Lvm_machine.Addr.page_size / 4) 0
    done;
    for r = 0 to warmup - 1 do
      round ~timed:false r
    done;
    Kernel.sync_log k logseg;
    Lvm_log.truncate_suffix log ~new_end:0;
    Span.leave sp;
    let setup_ns = now_ns () - t0 in
    let m = mark k in
    let c0 = Kernel.time k in
    let tp =
      timed_phase ~rounds ~prefix ~prefix_print:(fun () -> sim_state_print k)
        ~round:(fun r -> round ~timed:true (warmup + r))
    in
    let sim_cycles = Kernel.time k - c0 in
    let ops = rounds * (burst + hot_rewrites) in
    (* Recovery: replay the retained log into an image of the region
       with [Log_reader.fold]. *)
    let image = Array.make words (-1) in
    let replay () =
      Array.fill image 0 words (-1);
      let records = ref 0 and outside = ref 0 in
      let s = Span.enter Span.Log_reader_fold in
      Lvm.Log_reader.fold k logseg ~init:() ~f:(fun () ~off:_ r ->
          incr records;
          match Lvm.Log_reader.locate k r with
          | Some (s, off) when s == seg -> image.(off / 4) <- r.Lvm_machine.Log_record.value
          | _ -> incr outside);
      Span.leave s;
      (!records, !outside)
    in
    let sv = Span.enter Span.Verify in
    let recovery_ns, (records, outside) = timed_recovery replay in
    (* Output checks. *)
    for w = 0 to words - 1 do
      let got = Kernel.seg_read_raw k seg ~off:(4 * w) ~size:4 in
      check (got = model.(w)) "logged_write_burst: word %d reads %d, model %d" w got model.(w);
      check (image.(w) = -1 || image.(w) = got)
        "logged_write_burst: log replay gives word %d = %d, memory %d" w image.(w) got
    done;
    check (outside = 0) "logged_write_burst: %d log records map outside the region" outside;
    let retained_rounds = if rounds mod cycle = 0 then cycle else rounds mod cycle in
    check (records = retained_rounds * (burst + hot_rewrites))
      "logged_write_burst: retained log holds %d records" records;
    let lost = Snap.get (Kernel.snapshot k) "log_records_lost" in
    check (lost = 0) "logged_write_burst: logger lost %d records" lost;
    Span.leave sv;
    let layer =
      machine_layer k m ~ops ~txns:rounds
      @ [ ("rvm.wal_bytes_retained", "bytes", 0.);
          ("rvm.recovery_replayed", "records", float_of_int records);
          ("store.cross_pct", "%", 0.); ("store.requeued", "count", 0.);
          ("store.shard_busy_pct_max", "%", 0.); ("store.shard_imbalance", "ratio", 0.);
          ("op_fail_pct", "%", 0.) ]
    in
    { setup_ns; cal_ns = tp.t_cal_ns; round_ns = tp.t_round_ns; ops; attempted = ops; failed = 0;
      minor_words = tp.t_minor; promoted_words = tp.t_promoted;
      minor_collections = tp.t_minor_coll; major_collections = tp.t_major_coll;
      sim_cycles; commits = Exact lat; recovery_ns;
      layer; prefix_print = tp.t_prefix;
      print =
        digest_of
          (("sim_cycles", "", float_of_int sim_cycles)
           :: ("commit_cycles", "", float_of_int (Array.fold_left ( + ) 0 lat)) :: layer) }
end

(* {1 The store workloads}

   A round is one closed-loop [Workload.run] call whose seed is drawn
   from the benchmark seed. *)
module type STORE_WL = sig
  val config : Store.Config.t
  val spec : Workload.spec
  val rounds : int
  val warmup : int
  val snapshot_reads : bool
end

module Store_wl (W : STORE_WL) = struct
  let rounds = W.rounds
  let prefix = max 1 (W.rounds / 8)

  (* Every key, read the way the workload reads: worker reads, or one
     acquired snapshot. *)
  let read_all st =
    let keys = W.config.Store.Config.keys in
    if W.snapshot_reads then begin
      let s = Span.enter Span.Mvcc_acquire in
      let snap =
        match Store.Snapshot.acquire st with
        | Ok snap -> snap
        | Error e -> raise (Check_failed ("acquire: " ^ Lvm.Lvm_error.to_string e))
      in
      Span.leave s;
      let values =
        Array.init keys (fun key ->
            let s = Span.enter Span.Mvcc_read in
            let v = Store.Snapshot.read snap key in
            Span.leave s;
            match v with
            | Ok v -> v
            | Error e -> raise (Check_failed ("snapshot read: " ^ Lvm.Lvm_error.to_string e)))
      in
      let s = Span.enter Span.Mvcc_release in
      Store.Snapshot.release snap;
      Span.leave s;
      values
    end
    else
      Array.init keys (fun key ->
          let s = Span.enter Span.Store_read in
          let v = Store.read st key in
          Span.leave s;
          match v with
          | Ok v -> v
          | Error e -> raise (Check_failed ("read: " ^ Lvm.Lvm_error.to_string e)))

  let run ~seed ~rounds =
    let rng = Splitmix.create ~seed in
    let seeds = Array.init (W.warmup + rounds) (fun _ -> Splitmix.int rng ~bound:(1 lsl 30)) in
    let shards = W.config.Store.Config.shards in
    let executed = ref 0 and reads = ref 0 and cross = ref 0 and requeued = ref 0 in
    let failed = ref 0 and wall = ref 0 in
    let shard_cycles = Array.make shards 0 in
    Gc.full_major ();
    let t0 = now_ns () in
    let sp = Span.enter Span.Setup in
    let st = Store.create W.config in
    let k = Store.kernel st in
    Span.set_clock (fun () -> Kernel.max_time k);
    let round ~timed r =
      let s = Span.enter Span.Store_workload_run in
      let res = Workload.run st { W.spec with Workload.seed = seeds.(r) } in
      Span.leave s;
      let lost = res.Workload.failed + res.shed + res.dropped in
      check
        (res.executed + res.reads + lost = W.spec.txns)
        "store round %d: executed %d + reads %d + failed/shed/dropped %d <> attempted %d" r
        res.executed res.reads lost W.spec.txns;
      if timed then begin
        executed := !executed + res.executed;
        reads := !reads + res.reads;
        cross := !cross + res.cross;
        requeued := !requeued + res.requeued;
        failed := !failed + lost;
        wall := !wall + res.wall_cycles;
        Array.iteri (fun i (s : Workload.shard_stat) -> shard_cycles.(i) <- shard_cycles.(i) + s.cycles)
          res.per_shard
      end
    in
    for r = 0 to W.warmup - 1 do
      round ~timed:false r
    done;
    Span.leave sp;
    let setup_ns = now_ns () - t0 in
    let m = mark k in
    let tp =
      timed_phase ~rounds ~prefix ~prefix_print:(fun () -> sim_state_print k)
        ~round:(fun r -> round ~timed:true (W.warmup + r))
    in
    let wal_bytes =
      List.init shards (fun i -> Lvm_rvm.Ramdisk.wal_bytes (Lvm_rvm.Rlvm.disk (Store.shard st i)))
      |> List.fold_left ( + ) 0
    in
    let bounds, counts, _ = hist_delta k m "store.commit_cycles" in
    let attempted = rounds * W.spec.txns in
    let layer_counters = machine_layer k m ~ops:(!executed + !reads) ~txns:!executed in
    (* Output checks: every key reads the same before and after crash
       recovery. *)
    let sv = Span.enter Span.Verify in
    let s = Span.enter Span.Store_flush in
    Store.flush st;
    Span.leave s;
    let before = read_all st in
    let recovery_ns, rc =
      timed_recovery (fun () ->
          let s = Span.enter Span.Store_recover in
          let rc = Store.recover st in
          Span.leave s;
          rc)
    in
    let after = read_all st in
    Array.iteri
      (fun key v ->
        check (v = after.(key)) "store: key %d reads %d before recovery, %d after" key v after.(key))
      before;
    Span.leave sv;
    let replayed =
      Array.fold_left (fun acc (r : Lvm_rvm.Ramdisk.recovery) -> acc + r.replayed)
        rc.coordinator.replayed rc.shard_reports
    in
    let maxc = Array.fold_left max 0 shard_cycles in
    let meanc = fdiv (Array.fold_left ( + ) 0 shard_cycles) shards in
    let layer =
      layer_counters
      @ [ ("rvm.wal_bytes_retained", "bytes", float_of_int wal_bytes);
          ("rvm.recovery_replayed", "records", float_of_int replayed);
          ("store.cross_pct", "%", 100. *. fdiv !cross !executed);
          ("store.requeued", "count", float_of_int !requeued);
          ("store.shard_busy_pct_max", "%", 100. *. fdiv maxc !wall);
          ("store.shard_imbalance", "ratio", if meanc = 0. then 0. else float_of_int maxc /. meanc);
          ("op_fail_pct", "%", 100. *. fdiv !failed attempted) ]
    in
    { setup_ns; cal_ns = tp.t_cal_ns; round_ns = tp.t_round_ns; ops = !executed + !reads; attempted;
      failed = !failed; minor_words = tp.t_minor; promoted_words = tp.t_promoted;
      minor_collections = tp.t_minor_coll; major_collections = tp.t_major_coll;
      sim_cycles = !wall; commits = Buckets { bounds; counts }; recovery_ns; layer;
      prefix_print = tp.t_prefix;
      print =
        digest_of
          (("sim_cycles", "", float_of_int !wall)
           :: ("ops", "", float_of_int (!executed + !reads))
           :: List.mapi (fun i c -> (string_of_int i, "", float_of_int c)) (Array.to_list counts)
           @ layer) }
end

module Oltp = Store_wl (struct
  let config = { Store.Config.default with shards = 4; group = 1 }

  let spec =
    { Workload.default with txns = 200; cross_pct = 20; writes_per_txn = 4; dist = Uniform;
      read_pct = 0 }

  let rounds = 25
  let warmup = 2
  let snapshot_reads = false
end)

module Zipf_reads = Store_wl (struct
  let config = { Store.Config.default with shards = 4; group = 16 }

  let spec =
    { Workload.default with txns = 500; cross_pct = 0; writes_per_txn = 1;
      dist = Zipfian { theta = 1.1 }; read_pct = 95; read_mode = Snapshot; readers = 2 }

  let rounds = 200
  let warmup = 8
  let snapshot_reads = true
end)

(* [inputs] is how many distinct seeds a run cycles its reps through:
   enough simulated work that a workload's figures vary little from
   one seed to the next. *)
type workload = {
  name : string;
  rounds : int;
  prefix : int;
  inputs : int;
  run : seed:int -> rounds:int -> rep;
}

let all =
  [ { name = "logged_write_burst"; rounds = Logged_write.rounds; prefix = Logged_write.prefix;
      inputs = 4; run = Logged_write.run };
    { name = "store_oltp_2pc"; rounds = Oltp.rounds; prefix = Oltp.prefix; inputs = 24;
      run = Oltp.run };
    { name = "store_zipf_snapshot_reads"; rounds = Zipf_reads.rounds; prefix = Zipf_reads.prefix;
      inputs = 8; run = Zipf_reads.run } ]
