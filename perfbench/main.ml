(* The repository's benchmark: three seeded single-thread workloads
   measured from outside the program, on two clocks.

     main.exe --workload W --seed N --seconds S --trace 0|1

   Simulated cycles come from the machine model and repeat exactly for
   a seed. Host time is this process's clock. The model is calibrated
   to the paper's Table 2 costs only: it is not validated against
   hardware, so no simulated figure carries an error bound.

   A run repeats fixed-size reps (see [Workloads]) until [--seconds]
   have passed, cycling through a few input seeds drawn from [--seed].
   Simulated metrics sum the first rep of each input and must repeat
   bit for bit in every later rep of that input. Host times are scaled
   by the host's measured speed (see [Calibrate]) and reduced by median
   over the reps of each input. The last line of stdout is one JSON
   object. *)

open Workloads

(* {1 Reports} *)

(* Host times are scaled to the host's reference speed by the rep's
   calibration chunks (see [Calibrate]); the reps of one input are then
   reduced by their median. *)
let scale r ns = ns *. Calibrate.reference_ns /. r.cal_ns
let typical f reps = Stats.median (Array.of_list (List.map f reps))

(* The reps of one input seed. *)
type input = {
  seed : int;
  mutable first : rep option;  (* the simulated reference *)
  mutable untraced : rep list;  (* host samples *)
  mutable traced : rep list;
}

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let mean f l = sum f l /. float_of_int (List.length l)
let first i = Option.get i.first

(* Per input and round, the typical scaled host time across reps. *)
let round_cells reps =
  let n = Bigarray.Array1.dim (List.hd reps).round_ns in
  Array.init n (fun r -> typical (fun rep -> scale rep (float_of_int rep.round_ns.{r})) reps)

type host = {
  ops_per_s : float;
  round_p50_us : float;
  round_p99_us : float;
  drift_pct : float;  (* last quarter's mean round time against the first's *)
  timed_s : float;
}

let host_of inputs reps_of =
  let cells = List.map (fun i -> round_cells (reps_of i)) inputs in
  let all = Array.concat cells in
  let timed_ns = Array.fold_left ( +. ) 0. all in
  let drift c =
    let n = Array.length c in
    let q = max 1 (n / 4) in
    let part lo hi = Array.fold_left ( +. ) 0. (Array.sub c lo (hi - lo)) /. float_of_int (hi - lo) in
    100. *. ((part (n - q) n /. part 0 q) -. 1.)
  in
  { ops_per_s = sum (fun i -> float_of_int (first i).ops) inputs *. 1e9 /. timed_ns;
    round_p50_us = Stats.quantile all 0.5 /. 1e3;
    round_p99_us = Stats.quantile all 0.99 /. 1e3;
    drift_pct = mean drift cells;
    timed_s = timed_ns /. 1e9 }

let commit_quantile inputs q =
  match (first (List.hd inputs)).commits with
  | Exact _ ->
    Stats.grouped_quantile
      (Array.concat
         (List.map (fun i -> match (first i).commits with Exact a -> a | Buckets _ -> [||]) inputs))
      q
  | Buckets { bounds; counts } ->
    let total = Array.make (Array.length counts) 0 in
    List.iter
      (fun i ->
        match (first i).commits with
        | Buckets { counts; _ } -> Array.iteri (fun j c -> total.(j) <- total.(j) + c) counts
        | Exact _ -> ())
      inputs;
    Stats.hist_quantile ~bounds ~counts:total q

let per_op_of inputs f =
  sum (fun i -> Stats.median (Array.of_list (List.map f i.untraced))) inputs
  /. sum (fun i -> float_of_int (first i).ops) inputs

let end_to_end inputs ~top_heap_mb =
  let h = host_of inputs (fun i -> i.untraced) in
  let sim_ops = sum (fun i -> float_of_int (first i).ops) inputs in
  let sim_cycles = sum (fun i -> float_of_int (first i).sim_cycles) inputs in
  let per_input f = mean (fun i -> typical f i.untraced) inputs in
  [ ("setup_s", "s", per_input (fun r -> scale r (float_of_int r.setup_ns)) /. 1e9);
    ("host_ops_per_s", "ops/s", h.ops_per_s);
    ("host_round_p50_us", "us", h.round_p50_us);
    ("host_minor_words_per_op", "words", per_op_of inputs (fun r -> r.minor_words));
    ("host_top_heap_mb", "MiB", top_heap_mb);
    ("recovery_ms", "ms", per_input (fun r -> scale r (float_of_int r.recovery_ns)) /. 1e6);
    ("sim_ops_per_kcycle", "ops/kcycle", 1000. *. sim_ops /. sim_cycles);
    ("sim_commit_p50_cycles", "cycles", commit_quantile inputs 0.5);
    ("sim_commit_p99_cycles", "cycles", commit_quantile inputs 0.99) ]

(* Span self times of traced rep [r], scaled like every host time. *)
let span_metrics r =
  let per_call n = scale r (Span.self_ns_per_call n) in
  [ ("kernel.write_word_host_ns", "ns", per_call Span.Kernel_write_word);
    ("kernel.sync_log_host_ns", "ns", per_call Span.Kernel_sync_log);
    ("log.truncate_host_ns", "ns", per_call Span.Log_truncate_suffix);
    ("store.workload_run_host_ms", "ms", per_call Span.Store_workload_run /. 1e6);
    ("store.recover_host_ms", "ms", per_call Span.Store_recover /. 1e6);
    ("mvcc.acquire_host_ns", "ns", per_call Span.Mvcc_acquire);
    ("mvcc.read_host_ns", "ns", per_call Span.Mvcc_read) ]
  @ List.map
      (fun l ->
        ( Printf.sprintf "self.%s_ns_per_op" l, "ns/op",
          scale r (float_of_int (Span.layer_self_ns l)) /. float_of_int r.ops ))
      Span.layers

(* [selfs] pairs each input with the span metrics of its traced reps. *)
let per_layer inputs ~selfs =
  let h = host_of inputs (fun i -> i.untraced) in
  let ht = host_of inputs (fun i -> i.traced) in
  let sim_cycles = sum (fun i -> float_of_int (first i).sim_cycles) inputs in
  let gc name unit f = (name, unit, per_op_of inputs f) in
  let traced_self =
    List.map
      (fun (name, unit, _) ->
        let value l = List.find_map (fun (n, _, v) -> if n = name then Some v else None) l in
        (name, unit, mean (fun (_, l) -> Stats.median (Array.of_list (List.filter_map value l))) selfs))
      (List.hd (snd (List.hd selfs)))
  in
  (first (List.hd inputs)).layer
  @ [ ("sim_mcycles_per_host_s", "Mcycles/s", sim_cycles /. h.timed_s /. 1e6);
      gc "gc.minor_collections_per_kop" "count/kop" (fun r ->
          1000. *. float_of_int r.minor_collections);
      ( "gc.major_collections", "count",
        sum
          (fun i ->
            Stats.median (Array.of_list (List.map (fun r -> float_of_int r.major_collections) i.untraced)))
          inputs );
      gc "gc.promoted_words_per_op" "words/op" (fun r -> r.promoted_words);
      ("host_round_p99_us", "us", h.round_p99_us);
      ("host_round_drift_pct", "%", h.drift_pct);
      ("trace.overhead_pct", "%", 100. *. (1. -. (ht.ops_per_s /. h.ops_per_s)));
      ( "host.calibration_chunk_ns", "ns",
        Stats.median (Array.of_list (List.concat_map (fun i -> List.map (fun r -> r.cal_ns) i.untraced) inputs)) ) ]
  @ traced_self

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let emit ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (n, u, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

(* {1 Driver} *)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: logged_write_burst store_oltp_2pc store_zipf_snapshot_reads";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10. and trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with Some s when s > 0. -> seconds := s | _ -> usage ());
      parse rest
    | "--trace" :: v :: rest ->
      (match v with "0" -> trace := 0 | "1" -> trace := 1 | _ -> usage ());
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed = match !seed with Some s -> s | None -> usage () in
  let w =
    match List.find_opt (fun w -> w.name = !workload) Workloads.all with
    | Some w -> w
    | None -> usage ()
  in
  let traced = !trace = 1 in
  let input_seeds seed =
    let rng = Splitmix.create ~seed in
    List.init w.inputs (fun _ -> Splitmix.int rng ~bound:(1 lsl 30))
  in
  let inputs =
    List.map (fun seed -> { seed; first = None; untraced = []; traced = [] }) (input_seeds seed)
  in
  let nth = List.nth inputs in
  let deadline = now_ns () + int_of_float (!seconds *. 1e9) in
  let failures = ref [] in
  let fail msg = failures := msg :: !failures in
  let guard f = try Some (f ()) with Check_failed msg -> fail msg; None in
  let selfs = List.map (fun i -> (i, ref [])) inputs in
  (* Each input needs three host samples, or two of each kind in a
     traced run. *)
  let short () =
    List.exists
      (fun i ->
        if traced then List.length i.untraced < 2 || List.length i.traced < 2
        else List.length i.untraced < 3)
      inputs
  in
  let k = ref 0 and top_heap_mb = ref 0. in
  while !failures = [] && (now_ns () < deadline || short ()) do
    (* Traced runs alternate untraced and traced reps of one input. *)
    let input = nth ((if traced then !k / 2 else !k) mod w.inputs) in
    let tracing = traced && !k mod 2 = 1 in
    if tracing then Span.start ();
    (match guard (fun () -> w.run ~seed:input.seed ~rounds:w.rounds) with
     | Some r ->
       (match input.first with
        | None -> input.first <- Some r
        | Some f ->
          if f.print <> r.print || f.prefix_print <> r.prefix_print then
            fail "simulated metrics differ between two reps of one seed");
       (* Only the first rep's simulated samples are used; dropping the
          rest keeps the heap figures the program's own. *)
       let r = { r with commits = Exact [||]; layer = [] } in
       (* The very first rep warms the process: no host sample. *)
       if tracing then begin
         let self = List.fold_left (fun acc n -> acc + Span.self_ns n) 0 Span.all in
         if self <> Span.root_ns () then fail "span self times do not sum to the traced time";
         input.traced <- r :: input.traced;
         let l = List.assq input selfs in
         l := span_metrics r :: !l
       end
       else if !k > 0 then input.untraced <- r :: input.untraced
     | None -> ());
    if tracing then Span.stop ();
    (* The heap's peak over the first rep of a fresh process. Later reps
       only add fragmentation, which varies with how many ran. *)
    if !k = 0 then
      top_heap_mb :=
        float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.;
    incr k
  done;
  (* Seed handling: another seed must change the simulated metrics. *)
  (if !failures = [] then
     let other = List.hd (input_seeds (seed + 1)) in
     match guard (fun () -> w.run ~seed:other ~rounds:w.prefix) with
     | Some r when r.prefix_print = (first (List.hd inputs)).prefix_print ->
       fail "a different seed left the simulated metrics unchanged"
     | _ -> ());
  if traced && Span.recorded () > 0 then begin
    let dir = Filename.concat "perfbench" "out" in
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    Span.write_csv (Filename.concat dir (w.name ^ ".spans.csv"))
  end;
  if !failures <> [] then begin
    List.iter (fun m -> Printf.eprintf "check failed: %s\n" m) (List.rev !failures);
    print_endline "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}";
    exit 1
  end;
  let reps = List.concat_map (fun i -> i.untraced @ i.traced) inputs in
  let attempted = List.fold_left (fun a r -> a + r.attempted) 0 reps in
  let failed = List.fold_left (fun a r -> a + r.failed) 0 reps in
  Printf.printf "workload %s seed %d: %d inputs, %d reps of %d rounds\n" w.name seed w.inputs !k
    w.rounds;
  print_endline "simulated model calibrated to Table 2 only: unvalidated, no error figure";
  let metrics =
    if traced then per_layer inputs ~selfs:(List.map (fun (i, l) -> (i, !l)) selfs)
    else end_to_end inputs ~top_heap_mb:!top_heap_mb
  in
  let show (n, u, v) = Printf.printf "  %-32s %18.6f %s\n" n v u in
  List.iter show metrics;
  if not traced then show ("op_fail_pct", "%", 100. *. fdiv failed attempted);
  emit ~correct:true ~attempted ~failed metrics
