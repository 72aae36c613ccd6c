module Trace = Stc_obs.Trace

(* Accounting slots: the calling domain is slot 0, the domains a {!map}
   spawns are slots 1..domains-1. Each slot is written by exactly one
   domain while a map is in flight; readers ({!stats}) run between maps,
   after [Domain.join] has published the writes. *)
type t = {
  domains : int;
  busy : float array;
  mutable wall : float;  (* seconds spent inside [map], summed *)
  trace : Trace.t option;
}

let create ?domains ?trace () =
  let domains =
    match domains with
    | Some d -> max 1 d
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  { domains; busy = Array.make domains 0.0; wall = 0.0; trace }

type stats = { s_wall : float; s_busy : float array }

let stats t = { s_wall = t.wall; s_busy = Array.copy t.busy }

let map ?chunk t f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let chunk =
      match chunk with
      | Some c -> max 1 c
      | None -> max 1 (n / (t.domains * 8)) (* several chunks per domain *)
    in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    (* A failed chunk records (lo, exn, backtrace) and cancels the chunks
       nobody has claimed yet; after the join the lowest-indexed failure
       is re-raised in the caller. *)
    let cancelled = Atomic.make false in
    let errors = Atomic.make [] in
    let rec push failure =
      let old = Atomic.get errors in
      if not (Atomic.compare_and_set errors old (failure :: old)) then
        push failure
    in
    let rec claim slot =
      if not (Atomic.get cancelled) then begin
        let lo = Atomic.fetch_and_add next chunk in
        if lo < n then begin
          let hi = min (lo + chunk) n in
          let t0 = Unix.gettimeofday () in
          let run () =
            try
              for i = lo to hi - 1 do
                results.(i) <- Some (f xs.(i))
              done
            with e ->
              let bt = Printexc.get_raw_backtrace () in
              Atomic.set cancelled true;
              push (lo, e, bt)
          in
          (match t.trace with
          | None -> run ()
          | Some tr ->
            (* items still unclaimed after this grab: the queue depth *)
            Trace.counter tr "pool.queue" (n - hi);
            Trace.span tr "pool.chunk" run);
          t.busy.(slot) <- t.busy.(slot) +. (Unix.gettimeofday () -. t0);
          claim slot
        end
      end
    in
    let t0 = Unix.gettimeofday () in
    let spawned = ref [] in
    (try
       for slot = 1 to t.domains - 1 do
         spawned := Domain.spawn (fun () -> claim slot) :: !spawned
       done
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       Atomic.set cancelled true;
       List.iter Domain.join !spawned;
       Printexc.raise_with_backtrace e bt);
    claim 0;
    List.iter Domain.join !spawned;
    t.wall <- t.wall +. (Unix.gettimeofday () -. t0);
    match Atomic.get errors with
    | [] -> Array.map Option.get results
    | first :: rest ->
      let _, e, bt =
        List.fold_left
          (fun ((lo0, _, _) as low) ((lo, _, _) as c) ->
            if lo < lo0 then c else low)
          first rest
      in
      Printexc.raise_with_backtrace e bt
  end

let with_pool ?domains ?trace f = f (create ?domains ?trace ())
