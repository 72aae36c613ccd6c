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
    | "counter" | "gauge" | "histo" -> str_field "name" r
    | "event" -> str_field "kind" r
    | "span" ->
      (* a span by its own name, the last component of its path *)
      Option.map Filename.basename (str_field "path" r)
    | _ -> None
  in
  match tag with
  | None -> false
  | Some t -> List.exists (fun p -> String.starts_with ~prefix:p t) ignores

(* Identifying key per record; numbered suffix disambiguates repeats
   (events of the same kind are paired in emission order). *)
let keys records =
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun r ->
      let base =
        match record_type r with
        | "meta" -> None
        | "counter" | "gauge" | "histo" ->
          Some ("metric:" ^ Option.value ~default:"?" (str_field "name" r))
        | "span" ->
          Some ("span:" ^ Option.value ~default:"?" (str_field "path" r))
        | "event" ->
          Some ("event:" ^ Option.value ~default:"?" (str_field "kind" r))
        | t -> Some ("unknown:" ^ t)
      in
      match base with
      | None -> None
      | Some base ->
        let n = Option.value ~default:0 (Hashtbl.find_opt seen base) in
        Hashtbl.replace seen base (n + 1);
        Some ((base, n), r))
    records

let close_enough tolerance a b =
  a = b
  || abs_float (a -. b) <= tolerance *. Float.max (abs_float a) (abs_float b)

let rec compare_json ~tolerance ~ignore_seconds ~optional ~report path a b =
  match (a, b) with
  | Json.Obj fa, Json.Obj fb ->
    let names =
      List.map fst fa
      @ List.filter (fun k -> not (List.mem_assoc k fa)) (List.map fst fb)
    in
    List.iter
      (fun k ->
        if not (ignore_seconds && k = "seconds") then
          match (List.assoc_opt k fa, List.assoc_opt k fb) with
          | Some va, Some vb ->
            compare_json ~tolerance ~ignore_seconds ~optional ~report
              (path ^ "." ^ k) va vb
          (* optional fields (histo quantiles, added in export schema 3)
             only count as drift when both sides carry them *)
          | Some _, None when not (List.mem k optional) ->
            report (Printf.sprintf "%s: only in A" (path ^ "." ^ k))
          | None, Some _ when not (List.mem k optional) ->
            report (Printf.sprintf "%s: only in B" (path ^ "." ^ k))
          | _ -> ())
      names
  | Json.List la, Json.List lb ->
    if List.length la <> List.length lb then
      report
        (Printf.sprintf "%s: lengths differ (%d vs %d)" path (List.length la)
           (List.length lb))
    else
      List.iteri
        (fun i (va, vb) ->
          compare_json ~tolerance ~ignore_seconds ~optional ~report
            (Printf.sprintf "%s[%d]" path i)
            va vb)
        (List.combine la lb)
  | a, b -> (
    match (Json.to_float a, Json.to_float b) with
    | Some fa, Some fb ->
      if not (close_enough tolerance fa fb) then
        report (Printf.sprintf "%s: %g vs %g" path fa fb)
    | _ ->
      if a <> b then
        report
          (Printf.sprintf "%s: %s vs %s" path (Json.to_string a)
             (Json.to_string b)))

let diff_records ?(tolerance = 0.0) ?(ignores = []) ~a_label ~b_label ra rb =
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
      | Some rb ->
        let ignore_seconds = record_type ra = "span" in
        let optional =
          if record_type ra = "histo" then [ "p50"; "p90"; "p99" ] else []
        in
        compare_json ~tolerance ~ignore_seconds ~optional ~report
          (Printf.sprintf "%s#%d" base n)
          ra rb)
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
