module Probe = Stc_trace.Probe
module Skeleton = Stc_trace.Skeleton

type t = {
  file : Storage.file;
  bufmgr : Bufmgr.t;
  mutable rows : int;
}

let load storage bufmgr ~name ~rows ~width =
  let file = Storage.new_file storage ~name ~width in
  Array.iter (fun row -> ignore (Storage.append_row file row)) rows;
  { file; bufmgr; rows = Array.length rows }

let n_rows t = t.rows

let file t = t.file

type scan = {
  heap : t;
  mutable page_no : int;
  mutable slot : int;
  mutable page_pinned : bool;
}

let k_beginscan = Probe.key "heap_beginscan"

let k_getnext = Probe.key "heap_getnext"

let k_fetch = Probe.key "heap_fetch"

let begin_scan heap =
  Probe.routine k_beginscan @@ fun () ->
  { heap; page_no = 0; slot = 0; page_pinned = false }

let rescan scan =
  scan.page_no <- 0;
  scan.slot <- 0;
  scan.page_pinned <- false

let getnext scan =
  Probe.routine k_getnext @@ fun () ->
  let heap = scan.heap in
  let result = ref None in
  while
    Probe.cond "next_slot"
      (!result = None && scan.page_no < Storage.n_pages heap.file)
  do
    if Probe.cond "need_page" (not scan.page_pinned) then begin
      Bufmgr.read_buffer heap.bufmgr heap.file scan.page_no;
      scan.page_pinned <- true
    end;
    let page = Storage.page heap.file scan.page_no in
    if Probe.cond "slot_valid" (scan.slot < Page.n_items page) then begin
      let tuple = Tuple.deform page ~slot:scan.slot in
      scan.slot <- scan.slot + 1;
      result := Some tuple
    end
    else begin
      Bufmgr.release_buffer heap.bufmgr heap.file scan.page_no;
      scan.page_pinned <- false;
      scan.page_no <- scan.page_no + 1;
      scan.slot <- 0
    end
  done;
  !result

let fetch heap (pageno, slot) =
  Probe.routine k_fetch @@ fun () ->
  Bufmgr.read_buffer heap.bufmgr heap.file pageno;
  let page = Storage.page heap.file pageno in
  let tuple = Tuple.deform page ~slot in
  Bufmgr.release_buffer heap.bufmgr heap.file pageno;
  tuple

let skeletons =
  [
    ( "heap_beginscan",
      Stc_cfg.Proc.Access_methods,
      Skeleton.
        [ straight 6; helper "palloc"; straight 4; helper "SnapshotCheck" ] );
    ( "heap_getnext",
      Stc_cfg.Proc.Access_methods,
      Skeleton.
        [
          straight 4;
          while_ "next_slot"
            [
              if_ "need_page" [ call "ReadBuffer"; straight 2 ];
              if_else "slot_valid"
                [ call "heap_deform_tuple"; straight 3 ]
                [ call "ReleaseBuffer"; straight 3 ];
            ];
          straight 2;
        ] );
    ( "heap_fetch",
      Stc_cfg.Proc.Access_methods,
      Skeleton.
        [
          straight 5;
          call "ReadBuffer";
          straight 2;
          call "heap_deform_tuple";
          straight 2;
          call "ReleaseBuffer";
          straight 2;
        ] );
  ]
