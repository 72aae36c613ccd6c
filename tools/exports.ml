(* List the values that lib/**/*.mli export and that no other
   compilation unit references, then those that only tests reference,
   then the optional parameters that only tests pass, then the variant
   constructors that only tests build.

     dune build @check && dune exec tools/exports.exe

   Run from the root of the checkout. Reads the typed trees dune leaves
   under _build/default: every value declared in a .cmti under lib/ (nested
   signatures such as [Schema.L] included), and every identifier an
   expression references in any .cmt of the tree (lib, bin, tools, test,
   examples, perfbench). A declaration is reported when no unit
   other than its own refers to it. The executables' .cmt files exist
   only after [dune build @check].

   References from the declaring unit are skipped, not just unneeded: a
   unit's .ml and .mli number their uids independently, so an
   implementation uid can equal an unrelated interface uid.

   Optional parameters are read off each declared value's type. A call
   passes one when it names the label ([~x:v], [?x:v]); an argument the
   compiler fills in for an omitted option has no source location. Calls
   from the declaring unit count too: they name the implementation's
   value, which the unit's implementation shape maps to the declaration.
   A call through a local name bound to a partial application
   ([let build = f ~ctx in build ~params x]) counts for [f]; an option
   passed to a function received as an argument does not.

   Constructors are those of the variant types a .cmti under lib/
   declares. An expression builds one when it applies it
   ([Texp_construct]); a pattern that matches it does not count. Builds
   from the declaring unit count, so a constructor is keyed by (unit,
   type, constructor) rather than by uid, for the reason above. The type
   is the last component of the constructor's result type, so two
   variant types of one name in nested signatures of one unit share
   keys.

   Prints one "Module.value  file:line" line per reported value, then
   "N of M interface values have no caller outside their module"; then
   the same listing for the values whose every outside reference comes
   from a .cmt under _build/default/test/, ending "N of M interface
   values are called only from test/"; then one "Module.value ?label
   file:line" line per optional parameter that no call outside test/
   passes, ending "N of M optional parameters are passed only from test/
   or never"; then one "Module.Constructor (type)  file:line" line per
   constructor that no expression outside test/ builds, ending "N of M
   variant constructors are built only from test/ or never". The first
   and the last list are gates: the exit code is 1 when either is
   non-empty (after all four lists are printed), 2 when there is no
   build to read, and 0 otherwise. The other two lists are
   informational. *)

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

type decl = {
  uid : Shape.Uid.t;
  name : string;
  loc : Location.t;
  unit_name : string;
  path : string list;  (* the value's path inside its unit *)
  optionals : string list;  (* labels of its optional parameters *)
}

let rec optionals ty =
  match Types.get_desc ty with
  | Tarrow (Optional l, _, ret, _) -> l :: optionals ret
  | Tarrow (_, _, ret, _) -> optionals ret
  | _ -> []

type ctor = {
  c_key : string * string * string;  (* unit, type, constructor *)
  c_name : string;  (* "Module.Constructor (type)" *)
  c_loc : Location.t;
}

let declarations cmti =
  let unit_name = cmti.Cmt_format.cmt_modname in
  let decls = ref [] and ctors = ref [] in
  let rec signature path (sg : Typedtree.signature) =
    List.iter
      (fun (item : Typedtree.signature_item) ->
        match item.sig_desc with
        | Tsig_type (_, tds) ->
            List.iter
              (fun (td : Typedtree.type_declaration) ->
                match td.typ_kind with
                | Ttype_variant cds ->
                    let ty = td.typ_name.txt in
                    List.iter
                      (fun (cd : Typedtree.constructor_declaration) ->
                        let c = cd.cd_name.txt in
                        ctors :=
                          {
                            c_key = (unit_name, ty, c);
                            c_name =
                              Printf.sprintf "%s (%s)"
                                (String.concat "."
                                   (display_name unit_name
                                   :: List.rev (c :: path)))
                                ty;
                            c_loc = cd.cd_loc;
                          }
                          :: !ctors)
                      cds
                | _ -> ())
              tds
        | Tsig_value vd ->
            let path = List.rev (vd.val_name.txt :: path) in
            decls :=
              {
                uid = vd.val_val.val_uid;
                name = String.concat "." (display_name unit_name :: path);
                loc = vd.val_loc;
                unit_name;
                path;
                optionals = optionals vd.val_val.val_type;
              }
              :: !decls
        | Tsig_module { md_name = { txt = Some name; _ }; md_type; _ } -> (
            match md_type.mty_desc with
            | Tmty_signature sg -> signature (name :: path) sg
            | _ -> ())
        | _ -> ())
      sg.sig_items
  in
  (match cmti.cmt_annots with Interface sg -> signature [] sg | _ -> ());
  (!decls, !ctors)

(* The implementation uid of the value at [path] in a unit's shape. *)
let rec impl_uid (shape : Shape.t) path =
  match (shape.desc, path) with
  | Struct items, [ v ] ->
      Option.bind
        (Shape.Item.Map.find_opt (Shape.Item.make v Value) items)
        (fun s -> s.Shape.uid)
  | Struct items, m :: rest ->
      Option.bind
        (Shape.Item.Map.find_opt (Shape.Item.make m Module) items)
        (fun s -> impl_uid s rest)
  | _ -> None

type refs = {
  used : (Shape.Uid.t, bool) Hashtbl.t;
      (* value uid -> referenced from outside test/ *)
  passed : (Shape.Uid.t * string, bool) Hashtbl.t;
      (* (value uid, label) -> passed from outside test/ *)
  passed_own : (Shape.Uid.t * string, unit) Hashtbl.t;
      (* (implementation uid, label) passed within the declaring unit *)
  shapes : (string, Shape.t) Hashtbl.t;  (* unit -> implementation shape *)
  built : (string * string * string, bool) Hashtbl.t;
      (* (unit, type, constructor) -> built from outside test/ *)
}

let note tbl key ~from_test =
  let outside = Hashtbl.find_opt tbl key = Some true in
  Hashtbl.replace tbl key (outside || not from_test)

(* Record every value uid that [cmt] references from outside the uid's
   own unit, every optional label a call names, and every constructor
   an expression builds. *)
let references refs ~from_test (cmt : Cmt_format.cmt_infos) =
  let own uid =
    match uid with
    | Shape.Uid.Item { comp_unit; _ } -> comp_unit = cmt.cmt_modname
    | _ -> true
  in
  (* local name -> uid of the value it partially applies *)
  let partial = Ident.Tbl.create 16 in
  let value_binding sub (vb : Typedtree.value_binding) =
    (match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
    | Tpat_var (id, _), Texp_apply ({ exp_desc = Texp_ident (_, _, vd); _ }, _)
      ->
        Ident.Tbl.replace partial id vd.val_uid
    | _ -> ());
    Tast_iterator.default_iterator.value_binding sub vb
  in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (_, _, vd) when not (own vd.val_uid) ->
        note refs.used vd.val_uid ~from_test
    | Texp_construct (_, cd, _) -> (
        match (cd.cstr_uid, Types.get_desc cd.cstr_res) with
        | Shape.Uid.Item { comp_unit; _ }, Tconstr (path, _, _) ->
            note refs.built
              (comp_unit, Path.last path, cd.cstr_name)
              ~from_test
        | _ -> ())
    | _ -> ());
    (match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (path, _, vd); _ }, args) ->
        let uid =
          match path with
          | Pident id ->
              Option.value (Ident.Tbl.find_opt partial id) ~default:vd.val_uid
          | _ -> vd.val_uid
        in
        List.iter
          (function
            | Asttypes.Optional l, Some (a : Typedtree.expression)
              when a.exp_loc <> Location.none ->
                if own uid then Hashtbl.replace refs.passed_own (uid, l) ()
                else note refs.passed (uid, l) ~from_test
            | _ -> ())
          args
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr; value_binding } in
  Option.iter (Hashtbl.replace refs.shapes cmt.cmt_modname) cmt.cmt_impl_shape;
  match cmt.cmt_annots with
  | Implementation str -> it.structure it str
  | _ -> ()

let print_values values =
  List.iter
    (fun (d : decl) ->
      Printf.printf "%s  %s:%d\n" d.name d.loc.loc_start.pos_fname
        d.loc.loc_start.pos_lnum)
    (List.sort (fun (a : decl) b -> compare a.name b.name) values)

let () =
  let root = "_build/default" in
  let lib = Filename.concat root "lib" in
  if not (Sys.file_exists lib && Sys.is_directory lib) then (
    Printf.eprintf "exports: no %s; run dune build @check first\n" lib;
    exit 2);
  let test = Filename.concat root "test" ^ Filename.dir_sep in
  let refs =
    {
      used = Hashtbl.create 4096;
      passed = Hashtbl.create 1024;
      passed_own = Hashtbl.create 1024;
      shapes = Hashtbl.create 256;
      built = Hashtbl.create 256;
    }
  in
  List.iter
    (fun path ->
      let from_test = String.starts_with ~prefix:test path in
      Option.iter (references refs ~from_test) (read_cmt path))
    (files_with ".cmt" root []);
  let decls, ctors =
    List.split
      (List.filter_map
         (fun path -> Option.map declarations (read_cmt path))
         (files_with ".cmti" lib []))
  in
  let decls = List.concat decls and ctors = List.concat ctors in
  let unused = List.filter (fun d -> not (Hashtbl.mem refs.used d.uid)) decls in
  print_values unused;
  Printf.printf
    "%d of %d interface values have no caller outside their module\n"
    (List.length unused) (List.length decls);
  let test_only =
    List.filter (fun d -> Hashtbl.find_opt refs.used d.uid = Some false) decls
  in
  print_newline ();
  print_values test_only;
  Printf.printf "%d of %d interface values are called only from test/\n"
    (List.length test_only) (List.length decls);
  let passed_outside_test d l =
    Hashtbl.find_opt refs.passed (d.uid, l) = Some true
    ||
    match Hashtbl.find_opt refs.shapes d.unit_name with
    | None -> false
    | Some shape -> (
        match impl_uid shape d.path with
        | Some uid -> Hashtbl.mem refs.passed_own (uid, l)
        | None -> false)
  in
  let options =
    List.concat_map (fun d -> List.map (fun l -> (d, l)) d.optionals) decls
  in
  let unpassed =
    List.filter (fun (d, l) -> not (passed_outside_test d l)) options
  in
  print_newline ();
  List.iter
    (fun ((d : decl), l) ->
      Printf.printf "%s ?%s  %s:%d\n" d.name l d.loc.loc_start.pos_fname
        d.loc.loc_start.pos_lnum)
    (List.sort
       (fun ((a : decl), la) (b, lb) -> compare (a.name, la) (b.name, lb))
       unpassed);
  Printf.printf
    "%d of %d optional parameters are passed only from test/ or never\n"
    (List.length unpassed) (List.length options);
  let unbuilt =
    List.filter (fun c -> Hashtbl.find_opt refs.built c.c_key <> Some true) ctors
  in
  print_newline ();
  List.iter
    (fun c ->
      Printf.printf "%s  %s:%d\n" c.c_name c.c_loc.loc_start.pos_fname
        c.c_loc.loc_start.pos_lnum)
    (List.sort (fun a b -> compare a.c_name b.c_name) unbuilt);
  Printf.printf
    "%d of %d variant constructors are built only from test/ or never\n"
    (List.length unbuilt) (List.length ctors);
  if unused <> [] || unbuilt <> [] then exit 1
