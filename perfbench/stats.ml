let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs = List.sort Float.compare xs

let median xs =
  match Array.of_list (sorted xs) with
  | [||] -> invalid_arg "Stats.median: no samples"
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest percentile with at least ten samples above it, as
   (percentile, value). Below 21 samples no percentile above the median
   qualifies, and the median is returned as percentile 50. *)
let tail xs =
  let n = List.length xs in
  let i = n - 11 in
  if 2 * i < n then (50.0, median xs)
  else (100.0 *. float_of_int i /. float_of_int n, List.nth (sorted xs) i)

let sum xs = List.fold_left ( +. ) 0.0 xs

(* Peak resident set size of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> None
    | line -> (
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] ->
        Scanf.sscanf (String.trim v) "%d kB" (fun kb ->
            Some (float_of_int kb /. 1024.0))
      | _ -> scan ())
  in
  let r = Fun.protect ~finally:(fun () -> close_in ic) scan in
  match r with
  | Some mb -> mb
  | None -> failwith "peak_rss_mb: no VmHWM line in /proc/self/status"
