(* In-memory span recorder for the traced run.

   A span brackets one public call the benchmark makes into the
   program. It records its name, its parent (the enclosing open span),
   the round it belongs to (the request id), and its start and end on
   both clocks: host nanoseconds and simulated cycles. Spans stay in a
   flat int buffer until the run ends; [write_csv] dumps them.

   Host self time — a span's duration minus what its children cover —
   is rolled up per span name as spans close, so the report needs no
   pass over the buffer.

   When tracing is off, [enter] returns [-1] after one branch and
   [leave] ignores it: no clock read, no allocation. That keeps the
   untraced run's host time and minor-heap counts those of the program
   alone. *)

type name =
  | Round
  | Setup
  | Verify
  | Kernel_compute
  | Kernel_write_word
  | Kernel_sync_log
  | Log_truncate_suffix
  | Log_reader_fold
  | Store_workload_run
  | Store_flush
  | Store_read
  | Store_recover
  | Mvcc_acquire
  | Mvcc_read
  | Mvcc_release

let all =
  [ Round; Setup; Verify; Kernel_compute; Kernel_write_word; Kernel_sync_log;
    Log_truncate_suffix; Log_reader_fold; Store_workload_run; Store_flush;
    Store_read; Store_recover; Mvcc_acquire; Mvcc_read; Mvcc_release ]

let label = function
  | Round -> "bench.round"
  | Setup -> "bench.setup"
  | Verify -> "bench.verify"
  | Kernel_compute -> "kernel.compute"
  | Kernel_write_word -> "kernel.write_word"
  | Kernel_sync_log -> "kernel.sync_log"
  | Log_truncate_suffix -> "log.truncate_suffix"
  | Log_reader_fold -> "log_reader.fold"
  | Store_workload_run -> "store.workload_run"
  | Store_flush -> "store.flush"
  | Store_read -> "store.read"
  | Store_recover -> "store.recover"
  | Mvcc_acquire -> "mvcc.acquire"
  | Mvcc_read -> "mvcc.read"
  | Mvcc_release -> "mvcc.release"

(* The library each span's self time is charged to. Work below the
   called function (lvm_machine under the kernel, lvm_rvm under the
   store) is not separated here: spans inside the program would be
   needed for that. *)
let layer = function
  | Round | Setup | Verify -> "bench"
  | Kernel_compute | Kernel_write_word | Kernel_sync_log -> "lvm_vm"
  | Log_truncate_suffix -> "lvm_log"
  | Log_reader_fold -> "lvm"
  | Store_workload_run | Store_flush | Store_read | Store_recover -> "lvm_store"
  | Mvcc_acquire | Mvcc_read | Mvcc_release -> "lvm_mvcc"

let layers = [ "bench"; "lvm_vm"; "lvm_log"; "lvm"; "lvm_store"; "lvm_mvcc" ]

let names = Array.of_list all

let code name =
  let rec find i = if names.(i) = name then i else find (i + 1) in
  find 0

(* Per span, [width] ints: packed name/round/parent, host start, host
   end, cycle start, cycle end. *)
let width = 5
let max_depth = 16

type t = {
  mutable on : bool;
  mutable clock : unit -> int;  (* simulated cycles *)
  mutable round : int;
  mutable buf : int array;
  mutable n : int;
  stack : int array;  (* open span indices *)
  child_ns : int array;  (* host ns covered by children, per depth *)
  mutable depth : int;
  self_ns : int array;  (* per name *)
  calls : int array;
}

let t =
  { on = false; clock = (fun () -> 0); round = 0; buf = [||]; n = 0;
    stack = Array.make max_depth 0; child_ns = Array.make max_depth 0; depth = 0;
    self_ns = Array.make (Array.length names) 0;
    calls = Array.make (Array.length names) 0 }

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Start a fresh recording; the simulated clock reads 0 until the
   machine under test exists (see [set_clock]). *)
let start () =
  t.on <- true;
  t.clock <- (fun () -> 0);
  t.round <- 0;
  t.n <- 0;
  t.depth <- 0;
  Array.fill t.self_ns 0 (Array.length names) 0;
  Array.fill t.calls 0 (Array.length names) 0

let stop () = t.on <- false

(* [clock] reads the simulated wall clock of the machine under test. *)
let set_clock clock = t.clock <- clock
let set_round r = t.round <- r

let enter name =
  if not t.on then -1
  else begin
    let i = t.n in
    if (i + 1) * width > Array.length t.buf then begin
      let bigger = Array.make (max 4096 (2 * Array.length t.buf)) 0 in
      Array.blit t.buf 0 bigger 0 (i * width);
      t.buf <- bigger
    end;
    let parent = if t.depth = 0 then -1 else t.stack.(t.depth - 1) in
    let o = i * width in
    t.buf.(o) <- code name lor (t.round lsl 8) lor ((parent + 1) lsl 32);
    t.stack.(t.depth) <- i;
    t.child_ns.(t.depth) <- 0;
    t.depth <- t.depth + 1;
    t.n <- i + 1;
    t.buf.(o + 3) <- t.clock ();
    t.buf.(o + 1) <- now_ns ();
    i
  end

let leave i =
  if i >= 0 then begin
    let h1 = now_ns () in
    let c1 = t.clock () in
    let o = i * width in
    t.buf.(o + 2) <- h1;
    t.buf.(o + 4) <- c1;
    t.depth <- t.depth - 1;
    let d = t.depth in
    let ns = h1 - t.buf.(o + 1) in
    let nm = t.buf.(o) land 0xff in
    t.self_ns.(nm) <- t.self_ns.(nm) + ns - t.child_ns.(d);
    t.calls.(nm) <- t.calls.(nm) + 1;
    if d > 0 then t.child_ns.(d - 1) <- t.child_ns.(d - 1) + ns
  end

let calls name = t.calls.(code name)
let self_ns name = t.self_ns.(code name)

(* Mean self time per call, ns; 0 when the call was never made. *)
let self_ns_per_call name =
  let c = calls name in
  if c = 0 then 0. else float_of_int (self_ns name) /. float_of_int c

let layer_self_ns l =
  List.fold_left
    (fun acc n -> if layer n = l then acc + self_ns n else acc)
    0 all

(* Host ns covered by root spans: every self time sums to this. *)
let root_ns () =
  let s = ref 0 in
  for i = 0 to t.n - 1 do
    let o = i * width in
    if t.buf.(o) lsr 32 = 0 then s := !s + t.buf.(o + 2) - t.buf.(o + 1)
  done;
  !s

let recorded () = t.n

let write_csv path =
  let oc = open_out path in
  output_string oc
    "span,name,parent,round,host_start_ns,host_end_ns,cycle_start,cycle_end\n";
  for i = 0 to t.n - 1 do
    let o = i * width in
    let p = t.buf.(o) in
    Printf.fprintf oc "%d,%s,%d,%d,%d,%d,%d,%d\n" i
      (label names.(p land 0xff))
      ((p lsr 32) - 1)
      ((p lsr 8) land 0xffffff)
      t.buf.(o + 1) t.buf.(o + 2) t.buf.(o + 3) t.buf.(o + 4)
  done;
  close_out oc
