type ctx = {
  metrics : Registry.t option;
  progress : bool;
  seed : int option;
  jobs : int;
  store : string option;
  trace : Trace.t option;
}

let default =
  {
    metrics = None;
    progress = false;
    seed = None;
    jobs = 1;
    store = None;
    trace = None;
  }

let with_metrics reg ctx = { ctx with metrics = Some reg }

let with_progress progress ctx = { ctx with progress }

let with_seed seed ctx = { ctx with seed = Some seed }

let with_jobs jobs ctx = { ctx with jobs = max 1 jobs }

let with_store dir ctx = { ctx with store = Some dir }

let with_trace tr ctx = { ctx with trace = Some tr }

(* A [Run.span] is a timeline slice and, under [ctx.progress], one
   stderr line when [f] returns.  It writes no registry, so the call is
   safe on any domain; the line goes out in one [prerr_string], which
   takes the channel lock once, so lines from two domains never
   interleave ([Printf.eprintf] writes a line in pieces). *)
let span ctx name f =
  let slice () =
    match ctx.trace with Some tr -> Trace.span tr name f | None -> f ()
  in
  if not ctx.progress then slice ()
  else begin
    let t0 = Unix.gettimeofday () in
    let v = slice () in
    prerr_string
      (Printf.sprintf "%s: %.3fs\n" name (Unix.gettimeofday () -. t0));
    flush stderr;
    v
  end
