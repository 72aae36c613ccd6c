type key = { name : string; mutable gen : int; mutable pid : int }

type installed = { w : Walker.t; id : int }

let current : installed option ref = ref None

let generation = ref 0

let key name = { name; gen = -1; pid = -1 }

let with_walker w f =
  (match !current with
  | Some _ -> invalid_arg "Probe.with_walker: already active"
  | None -> ());
  incr generation;
  current := Some { w; id = !generation };
  Fun.protect ~finally:(fun () -> current := None) f

let resolve inst k =
  if k.gen <> inst.id then begin
    k.pid <- Walker.pid_of_name inst.w k.name;
    k.gen <- inst.id
  end;
  k.pid

let routine k f =
  match !current with
  | None -> f ()
  | Some inst ->
    Walker.enter inst.w (resolve inst k);
    let r =
      try f ()
      with e ->
        Walker.reset inst.w;
        raise e
    in
    Walker.leave inst.w;
    r

let cond site v =
  (match !current with
  | None -> ()
  | Some inst -> Walker.cond inst.w site v);
  v
