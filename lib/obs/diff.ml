let str_field name r =
  match Json.member name r with Some (Json.Str s) -> Some s | _ -> None

let record_type r = Option.value ~default:"?" (str_field "type" r)

(* Ignore-prefix filtering, applied before keying so both files number the
   surviving repeats identically. *)
let ignored ~ignores r =
  ignores <> []
  &&
  let tag =
    match record_type r with
    | "counter" | "gauge" -> str_field "name" r
    | "event" -> str_field "kind" r
    | _ -> None
  in
  match tag with
  | None -> false
  | Some t -> List.exists (fun p -> String.starts_with ~prefix:p t) ignores

(* Identifying key per record; numbered suffix disambiguates repeats.
   Events share one key, so they pair by position among the surviving
   events and their [kind] is compared like any other field. Any other
   record, the meta line included, keys by its type. *)
let keys records =
  let seen = Hashtbl.create 64 in
  List.map
    (fun r ->
      let base =
        match record_type r with
        | "counter" | "gauge" ->
          "metric:" ^ Option.value ~default:"?" (str_field "name" r)
        | t -> t
      in
      let n = Option.value ~default:0 (Hashtbl.find_opt seen base) in
      Hashtbl.replace seen base (n + 1);
      ((base, n), r))
    records

let rec compare_json ~report path a b =
  match (a, b) with
  | Json.Obj fa, Json.Obj fb ->
    let names =
      List.map fst fa
      @ List.filter (fun k -> not (List.mem_assoc k fa)) (List.map fst fb)
    in
    List.iter
      (fun k ->
        match (List.assoc_opt k fa, List.assoc_opt k fb) with
        | Some va, Some vb -> compare_json ~report (path ^ "." ^ k) va vb
        | Some _, None -> report (Printf.sprintf "%s: only in A" (path ^ "." ^ k))
        | None, Some _ -> report (Printf.sprintf "%s: only in B" (path ^ "." ^ k))
        | None, None -> ())
      names
  | Json.List la, Json.List lb ->
    if List.length la <> List.length lb then
      report
        (Printf.sprintf "%s: lengths differ (%d vs %d)" path (List.length la)
           (List.length lb))
    else
      List.iteri
        (fun i (va, vb) ->
          compare_json ~report (Printf.sprintf "%s[%d]" path i) va vb)
        (List.combine la lb)
  | a, b ->
    if a <> b then
      report
        (Printf.sprintf "%s: %s vs %s" path (Json.to_string a)
           (Json.to_string b))

let diff_records ?(ignores = []) ~a_label ~b_label ra rb =
  let drift = ref [] in
  let report msg = drift := msg :: !drift in
  let load records =
    keys (List.filter (fun r -> not (ignored ~ignores r)) records)
  in
  let a = load ra and b = load rb in
  let tbl_b = Hashtbl.create 256 in
  List.iter (fun (k, r) -> Hashtbl.replace tbl_b k r) b;
  List.iter
    (fun ((base, n), ra) ->
      match Hashtbl.find_opt tbl_b (base, n) with
      | None -> report (Printf.sprintf "%s#%d: only in %s" base n a_label)
      | Some rb -> compare_json ~report (Printf.sprintf "%s#%d" base n) ra rb)
    a;
  let tbl_a = Hashtbl.create 256 in
  List.iter (fun (k, r) -> Hashtbl.replace tbl_a k r) a;
  List.iter
    (fun ((base, n), _) ->
      if not (Hashtbl.mem tbl_a (base, n)) then
        report (Printf.sprintf "%s#%d: only in %s" base n b_label))
    b;
  (List.rev !drift, List.length a)

let load_file path =
  match
    let ic = open_in path in
    let doc = really_input_string ic (in_channel_length ic) in
    close_in ic;
    doc
  with
  | exception Sys_error e -> Error e
  | doc -> (
    match Json.lines doc with
    | exception Failure e -> Error (Printf.sprintf "%s: %s" path e)
    | [] -> Error (Printf.sprintf "%s: no records (empty or truncated export)" path)
    | records -> Ok records)
