type t = {
  label : string;
  interval : int;
  total : int option;
  clock : unit -> float;
  emit : string -> unit;
  start : float;
  mutable n : int;
  mutable next_report : int;
  mutable finished : bool;
}

let default_emit line =
  Printf.eprintf "\r%s%!" line

let create ?(interval = 1_000_000) ?total ?clock ?(emit = default_emit) ~label
    () =
  if interval <= 0 then invalid_arg "Progress.create: interval must be > 0";
  let clock = match clock with Some c -> c | None -> Unix.gettimeofday in
  {
    label;
    interval;
    total;
    clock;
    emit;
    start = clock ();
    n = 0;
    next_report = interval;
    finished = false;
  }

let rate t =
  let dt = t.clock () -. t.start in
  if dt <= 0.0 then 0.0 else float_of_int t.n /. dt

let fcount n =
  if n >= 10_000_000 then Printf.sprintf "%.1fM" (float_of_int n /. 1e6)
  else if n >= 10_000 then Printf.sprintf "%.0fK" (float_of_int n /. 1e3)
  else string_of_int n

let report t =
  let r = rate t in
  let line =
    match t.total with
    | Some total when total > 0 && r > 0.0 ->
      let eta = float_of_int (max 0 (total - t.n)) /. r in
      Printf.sprintf "%s: %s/%s (%.0f%%) %s/s ETA %.0fs" t.label (fcount t.n)
        (fcount total)
        (100.0 *. float_of_int t.n /. float_of_int total)
        (fcount (int_of_float r))
        eta
    | _ ->
      Printf.sprintf "%s: %s events, %s/s" t.label (fcount t.n)
        (fcount (int_of_float r))
  in
  t.emit line

let step t =
  t.n <- t.n + 1;
  if t.n >= t.next_report && not t.finished then begin
    t.next_report <- t.next_report + t.interval;
    report t
  end

(* The final line always renders, whatever the interval left pending:
   under the parallel atomic-drain pattern the last ticks land after the
   caller's final periodic report, so without this the bar would end
   short of 100%. *)
let finish t =
  if not t.finished then begin
    let dt = t.clock () -. t.start in
    let r = fcount (int_of_float (rate t)) in
    let line =
      match t.total with
      | Some total when total > 0 ->
        Printf.sprintf "%s: %s/%s (%.0f%%) in %.1fs (%s/s)" t.label
          (fcount t.n) (fcount total)
          (100.0 *. float_of_int t.n /. float_of_int total)
          dt r
      | _ ->
        Printf.sprintf "%s: %s events in %.1fs (%s/s)" t.label (fcount t.n) dt
          r
    in
    t.emit (line ^ "\n");
    t.finished <- true
  end
