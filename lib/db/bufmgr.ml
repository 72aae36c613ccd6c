module Probe = Stc_trace.Probe
module Skeleton = Stc_trace.Skeleton

type t = {
  frames : int;
  table : (int * int, int) Hashtbl.t; (* (file, page) -> stamp *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

let create ?(frames = 256) () =
  if frames < 1 then
    invalid_arg (Printf.sprintf "Bufmgr.create: frames must be >= 1, got %d" frames);
  { frames; table = Hashtbl.create 512; clock = 0; hits = 0; misses = 0 }

let k_read_buffer = Probe.key "ReadBuffer"

let k_release_buffer = Probe.key "ReleaseBuffer"

let evict t =
  (* LRU: smallest stamp *)
  let victim = ref None in
  Hashtbl.iter
    (fun key stamp ->
      match !victim with
      | Some (_, s) when s <= stamp -> ()
      | _ -> victim := Some (key, stamp))
    t.table;
  match !victim with
  | Some (key, _) -> Hashtbl.remove t.table key
  | None -> ()

let read_buffer t file pageno =
  Probe.routine k_read_buffer @@ fun () ->
  t.clock <- t.clock + 1;
  let key = (Storage.file_id file, pageno) in
  if Probe.cond "buf_hit" (Hashtbl.mem t.table key) then begin
    t.hits <- t.hits + 1;
    Hashtbl.replace t.table key t.clock
  end
  else begin
    t.misses <- t.misses + 1;
    if Probe.cond "need_evict" (Hashtbl.length t.table >= t.frames) then
      evict t;
    Storage.mdread file pageno;
    Hashtbl.replace t.table key t.clock
  end

let release_buffer t file pageno =
  Probe.routine k_release_buffer @@ fun () ->
  ignore t;
  ignore file;
  ignore pageno

let reset t =
  Hashtbl.reset t.table;
  t.clock <- 0;
  t.hits <- 0;
  t.misses <- 0

let hits t = t.hits

let misses t = t.misses

let skeletons =
  [
    ( "ReadBuffer",
      Stc_cfg.Proc.Buffer_manager,
      Skeleton.
        [
          straight 5;
          helper "LockBufHdr";
          if_else "buf_hit"
            [ straight 4; helper "pgstat_count" ]
            [
              if_ "need_evict"
                [ straight 8; helper "StrategyClockTick"; straight 3 ];
              call "mdread";
              straight 5;
              helper "ResourceOwnerRemember";
            ];
          straight 2;
        ] );
    ( "ReleaseBuffer",
      Stc_cfg.Proc.Buffer_manager,
      Skeleton.
        [ straight 4; helper "LWLockRelease"; straight 2; helper "pfree" ] );
  ]
