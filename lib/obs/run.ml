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

(* A [Run.span] is a timeline slice only: the registry holds no
   timings, so the call is safe on any domain. *)
let span ctx name f =
  match ctx.trace with Some tr -> Trace.span tr name f | None -> f ()

let reporter ctx ?interval ?total ~label () =
  if ctx.progress then Some (Progress.create ?interval ?total ~label ())
  else None
