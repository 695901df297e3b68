(* A yardstick for the host's speed.

   The benchmark shares its machine with other tenants, whose load
   changes the host's speed by up to a factor of two from one minute
   to the next. A chunk of fixed work is timed every few milliseconds
   between the rounds of a rep, and the rep's host times are scaled by
   [reference_ns] over its mean chunk time. The chunks sample the host
   across the whole rep, so the ratio cancels what the neighbours did
   meanwhile, while a change in the program's own speed shows in full.

   A chunk hashes, probes a 4096-entry [Hashtbl] and updates a 512 KiB
   array: compute- and cache-bound, the mix that the simulator's own
   speed follows. (A pure pointer chase through main memory does not
   slow down with the program and tracks nothing.) It allocates
   nothing, so the program's GC figures are untouched. *)

let steps = 8192

(* The host ns one chunk is scaled to: about its time at this machine's
   base speed. *)
let reference_ns = 800_000.

let table =
  let t = Hashtbl.create 8192 in
  for i = 0 to 4095 do
    Hashtbl.replace t i (i * 7)
  done;
  t

let counts = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 65536
let () = Bigarray.Array1.fill counts 0
let state = ref 88172645463325252

(* Run one chunk; returns its host ns. *)
let chunk () =
  let t0 = Span.now_ns () in
  let x = ref !state in
  for _ = 1 to steps do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let h = Hashtbl.find table (!x land 4095) in
    let i = (!x lsr 20) land 65535 in
    Bigarray.Array1.unsafe_set counts i (Bigarray.Array1.unsafe_get counts i + h)
  done;
  state := !x;
  Span.now_ns () - t0
