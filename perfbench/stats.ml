(* Order statistics over samples and over the program's histograms. *)

(* Linear interpolation between closest ranks (Python's
   statistics.quantiles "inclusive" method); [q] in [0, 1]. *)
let quantile a q =
  let s = Array.copy a in
  Array.sort compare s;
  let n = Array.length s in
  if n = 0 then 0.
  else begin
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))
  end

let median a = quantile a 0.5

let quantile_int a q = quantile (Array.map float_of_int a) q

(* Quantile of integer samples read as grouped data: value [v] stands
   for the interval [v - 0.5, v + 0.5), and the rank is interpolated
   inside the run of samples equal to the one that holds it. Unlike
   {!quantile_int}, this still moves when many samples tie. *)
let grouped_quantile a q =
  let s = Array.copy a in
  Array.sort compare s;
  let n = Array.length s in
  if n = 0 then 0.
  else begin
    let rank = q *. float_of_int n in
    let v = s.(min (n - 1) (int_of_float rank)) in
    let lo = ref 0 and hi = ref 0 in
    Array.iter (fun x -> if x < v then incr lo; if x <= v then incr hi) s;
    float_of_int v -. 0.5 +. ((rank -. float_of_int !lo) /. float_of_int (!hi - !lo))
  end

(* Quantile of a histogram's bucket counts (bucket [i] holds values in
   (bounds.(i-1), bounds.(i)], the last one overflow), interpolated
   linearly inside the bucket that holds the rank. Exact only to the
   bucket: a power-of-two bucket spans a factor of two. *)
let hist_quantile ~bounds ~counts q =
  let n = Array.fold_left ( + ) 0 counts in
  if n = 0 then 0.
  else begin
    let rank = q *. float_of_int n in
    let nb = Array.length bounds in
    let rec walk i cum =
      let c = counts.(i) in
      if i = Array.length counts - 1 || float_of_int (cum + c) >= rank then begin
        let lo = if i = 0 then float_of_int bounds.(0) else float_of_int bounds.(i - 1) in
        let hi =
          if i < nb then float_of_int bounds.(i) else 2. *. float_of_int bounds.(nb - 1)
        in
        if c = 0 then hi
        else lo +. ((hi -. lo) *. (rank -. float_of_int cum) /. float_of_int c)
      end
      else walk (i + 1) (cum + c)
    in
    walk 0 0
  end
