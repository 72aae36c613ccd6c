module Probe = Stc_trace.Probe
module Skeleton = Stc_trace.Skeleton

let page_entries = 224 (* (key, page, slot) triples per bucket page *)

type bucket_page = {
  keys : int array;
  tids : (int * int) array;
  next : bucket_page option;
  page_no : int;
}

type t = {
  file : Storage.file;
  bufmgr : Bufmgr.t;
  buckets : bucket_page option array;
}

(* Multiplicative hashing; only the engine uses this (the trace walker's
   [hash_any] helper models its cost). *)
let hash_key k = (k * 0x9E3779B1) land max_int

let build storage bufmgr ~name ~entries =
  let file = Storage.new_virtual_file storage ~name in
  let n = Array.length entries in
  let nbuckets = max 8 (1 lsl Stc_util.Bits.log2_ceil (max 1 (n / 64))) in
  let tmp = Array.make nbuckets [] in
  Array.iter
    (fun (k, tid) ->
      let b = hash_key k mod nbuckets in
      tmp.(b) <- (k, tid) :: tmp.(b))
    entries;
  let buckets =
    Array.map
      (fun lst ->
        let lst = List.rev lst in
        let rec pages = function
          | [] -> None
          | l ->
            let rec take k acc rest =
              match (k, rest) with
              | 0, _ | _, [] -> (List.rev acc, rest)
              | k, x :: tl -> take (k - 1) (x :: acc) tl
            in
            let chunk, rest = take page_entries [] l in
            let keys = Array.of_list (List.map fst chunk) in
            let tids = Array.of_list (List.map snd chunk) in
            let page_no = Storage.alloc_virtual_page file in
            let next = pages rest in
            Some { keys; tids; next; page_no }
        in
        pages lst)
      tmp
  in
  { file; bufmgr; buckets }

type scan = {
  idx : t;
  key : int;
  mutable page : bucket_page option;
  mutable pos : int;
}

let k_search = Probe.key "hash_search"

let begin_eq t key =
  Probe.routine k_search @@ fun () ->
  let b = hash_key key mod Array.length t.buckets in
  let page = t.buckets.(b) in
  (if Probe.cond "bucket_nonempty" (page <> None) then
     match page with
     | Some p -> Bufmgr.read_buffer t.bufmgr t.file p.page_no
     | None -> assert false);
  { idx = t; key; page; pos = 0 }

let k_getnext = Probe.key "hashgettuple"

let getnext scan =
  Probe.routine k_getnext @@ fun () ->
  let result = ref None in
  let continue_ = ref true in
  while Probe.cond "h_adv" !continue_ do
    if Probe.cond "h_have_page" (scan.page <> None) then begin
      let p = Option.get scan.page in
      if Probe.cond "h_page_end" (scan.pos >= Array.length p.keys) then begin
        if Probe.cond "h_has_next" (p.next <> None) then begin
          let np = Option.get p.next in
          Bufmgr.read_buffer scan.idx.bufmgr scan.idx.file np.page_no;
          scan.page <- Some np;
          scan.pos <- 0
        end
        else scan.page <- None
      end
      else begin
        let matches = p.keys.(scan.pos) = scan.key in
        if Probe.cond "h_match" matches then begin
          result := Some p.tids.(scan.pos);
          scan.pos <- scan.pos + 1;
          continue_ := false
        end
        else scan.pos <- scan.pos + 1
      end
    end
    else continue_ := false
  done;
  !result

let skeletons =
  [
    ( "hash_search",
      Stc_cfg.Proc.Access_methods,
      Skeleton.
        [
          straight 4;
          helper "hash_any";
          straight 3;
          if_ "bucket_nonempty" [ call "ReadBuffer"; straight 1 ];
          straight 2;
        ] );
    ( "hashgettuple",
      Stc_cfg.Proc.Access_methods,
      Skeleton.
        [
          straight 3;
          while_ "h_adv"
            [
              if_else "h_have_page"
                [
                  if_else "h_page_end"
                    [
                      if_else "h_has_next"
                        [ straight 2; call "ReadBuffer"; straight 2 ]
                        [ straight 2 ];
                    ]
                    [ if_else "h_match" [ straight 4 ] [ straight 2 ] ];
                ]
                [ straight 1 ];
            ];
          straight 2;
        ] );
  ]
