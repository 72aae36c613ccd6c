(* List the values that lib/**/*.mli export and that no other
   compilation unit references, then those that only tests reference.

     dune build @check && dune exec tools/exports.exe

   Run from the root of the checkout. Reads the typed trees dune leaves
   under _build/default: every value declared in a .cmti under lib/ (nested
   signatures such as [Schema.L] included), and every identifier an
   expression references in any .cmt of the tree (lib, bin, tools, test,
   examples, bench, perfbench). A declaration is reported when no unit
   other than its own refers to it. The executables' .cmt files exist
   only after [dune build @check].

   References from the declaring unit are skipped, not just unneeded: a
   unit's .ml and .mli number their uids independently, so an
   implementation uid can equal an unrelated interface uid.

   Prints one "Module.value  file:line" line per reported value, then
   "N of M interface values have no caller outside their module"; then
   the same listing for the values whose every outside reference comes
   from a .cmt under _build/default/test/, ending "N of M interface
   values are called only from test/". It gates nothing: the exit code
   is 0 unless there is no build to read. *)

let rec files_with ext dir acc =
  Array.fold_left
    (fun acc name ->
      let path = Filename.concat dir name in
      if Sys.is_directory path then files_with ext path acc
      else if Filename.check_suffix name ext then path :: acc
      else acc)
    acc (Sys.readdir dir)

let read_cmt path =
  try Some (Cmt_format.read_cmt path) with _ ->
    Printf.eprintf "exports: cannot read %s; skipped\n" path;
    None

(* [Stc_util__Rng] is how dune names module [Rng] of library [stc_util]. *)
let display_name modname =
  let b = Buffer.create (String.length modname) and i = ref 0 in
  while !i < String.length modname do
    if String.length modname > !i + 1 && String.sub modname !i 2 = "__" then (
      Buffer.add_char b '.';
      i := !i + 2)
    else (
      Buffer.add_char b modname.[!i];
      incr i)
  done;
  Buffer.contents b

let declarations cmti =
  let decls = ref [] in
  let rec signature prefix (sg : Typedtree.signature) =
    List.iter
      (fun (item : Typedtree.signature_item) ->
        match item.sig_desc with
        | Tsig_value vd ->
            let name = prefix ^ "." ^ vd.val_name.txt in
            decls := (vd.val_val.val_uid, name, vd.val_loc) :: !decls
        | Tsig_module { md_name = { txt = Some name; _ }; md_type; _ } -> (
            match md_type.mty_desc with
            | Tmty_signature sg -> signature (prefix ^ "." ^ name) sg
            | _ -> ())
        | _ -> ())
      sg.sig_items
  in
  (match cmti.Cmt_format.cmt_annots with
  | Interface sg -> signature (display_name cmti.cmt_modname) sg
  | _ -> ());
  !decls

(* Record every value uid that [cmt] references from outside the uid's
   own unit, as [true] once any reference comes from outside test/. *)
let references used ~from_test (cmt : Cmt_format.cmt_infos) =
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (_, _, vd) -> (
        match vd.val_uid with
        | Item { comp_unit; _ } when comp_unit <> cmt.cmt_modname ->
            let outside = Hashtbl.find_opt used vd.val_uid = Some true in
            Hashtbl.replace used vd.val_uid (outside || not from_test)
        | _ -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  match cmt.cmt_annots with
  | Implementation str -> it.structure it str
  | _ -> ()

let print_values values =
  List.iter
    (fun (_, name, (loc : Location.t)) ->
      Printf.printf "%s  %s:%d\n" name loc.loc_start.pos_fname
        loc.loc_start.pos_lnum)
    (List.sort (fun (_, a, _) (_, b, _) -> compare a b) values)

let () =
  let root = "_build/default" in
  let lib = Filename.concat root "lib" in
  if not (Sys.file_exists lib && Sys.is_directory lib) then (
    Printf.eprintf "exports: no %s; run dune build @check first\n" lib;
    exit 2);
  let test = Filename.concat root "test" ^ Filename.dir_sep in
  let used = Hashtbl.create 4096 in
  List.iter
    (fun path ->
      let from_test = String.starts_with ~prefix:test path in
      Option.iter (references used ~from_test) (read_cmt path))
    (files_with ".cmt" root []);
  let decls =
    List.concat_map
      (fun path -> Option.fold ~none:[] ~some:declarations (read_cmt path))
      (files_with ".cmti" lib [])
  in
  let unused =
    List.filter (fun (uid, _, _) -> not (Hashtbl.mem used uid)) decls
  in
  print_values unused;
  Printf.printf
    "%d of %d interface values have no caller outside their module\n"
    (List.length unused) (List.length decls);
  let test_only =
    List.filter
      (fun (uid, _, _) -> Hashtbl.find_opt used uid = Some false)
      decls
  in
  print_newline ();
  print_values test_only;
  Printf.printf "%d of %d interface values are called only from test/\n"
    (List.length test_only) (List.length decls)
