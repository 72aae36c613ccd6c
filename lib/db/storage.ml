module Probe = Stc_trace.Probe
module Skeleton = Stc_trace.Skeleton

type file = {
  id : int;
  name : string;
  width : int; (* 0 for virtual files *)
  mutable pages : Page.t array;
  mutable n_pages : int;
}

type t = { mutable next_id : int; mutable files : file list }

let create () = { next_id = 0; files = [] }

let add t f =
  t.files <- f :: t.files;
  t.next_id <- t.next_id + 1;
  f

let new_file t ~name ~width =
  add t { id = t.next_id; name; width; pages = [||]; n_pages = 0 }

let new_virtual_file t ~name =
  add t { id = t.next_id; name; width = 0; pages = [||]; n_pages = 0 }

let file_id f = f.id

let n_pages f = f.n_pages

let grow f p =
  if f.n_pages = Array.length f.pages then begin
    let cap = max 8 (2 * Array.length f.pages) in
    let pages = Array.make cap p in
    Array.blit f.pages 0 pages 0 f.n_pages;
    f.pages <- pages
  end;
  f.pages.(f.n_pages) <- p;
  f.n_pages <- f.n_pages + 1

let append_row f row =
  if f.width = 0 then invalid_arg "Storage.append_row: virtual file";
  let need_new =
    f.n_pages = 0 || Page.full f.pages.(f.n_pages - 1)
  in
  if need_new then grow f (Page.create ~width:f.width);
  let pno = f.n_pages - 1 in
  let p = f.pages.(pno) in
  let slot = Page.n_items p in
  Page.append p row;
  (pno, slot)

let page f n =
  if f.width = 0 then invalid_arg "Storage.page: virtual file";
  if n < 0 || n >= f.n_pages then invalid_arg "Storage.page: out of range";
  f.pages.(n)

let alloc_virtual_page f =
  if f.width <> 0 then invalid_arg "Storage.alloc_virtual_page: heap file";
  f.n_pages <- f.n_pages + 1;
  f.n_pages - 1

let k_mdread = Probe.key "mdread"

let mdread f n =
  Probe.routine k_mdread @@ fun () ->
  if n < 0 || n >= f.n_pages then
    invalid_arg
      (Printf.sprintf "Storage.mdread: page %d of %s out of range" n f.name)

let skeletons =
  [
    ( "mdread",
      Stc_cfg.Proc.Storage_manager,
      Skeleton.
        [
          straight 6;
          helper "AllocSetCheck";
          straight 4;
          helper "LWLockAcquire";
          straight 5;
          helper "pgstat_count";
          straight 3;
        ] );
  ]
