module Profile = Stc_profile.Profile

type params = Stc.params = {
  seq : Seqbuild.params;
  cache_bytes : int;
  cfa_bytes : int;
}

let params = Stc.params

type t = {
  name : string;
  slug : string;
  aliases : string list;
  describe : string;
  uses_cfa : bool;
  plan : Profile.t -> params -> Mapping.plan;
}

(* The built-in algorithms, in presentation order: the grid, the check
   report and the CLI listing all enumerate [all ()] as-is. Names, slugs
   and aliases must not clash; test_check's [algorithm registry lookup]
   checks that each one resolves to its own algorithm. *)
let builtins =
  [
    {
      name = "orig";
      slug = "original";
      aliases = [];
      describe =
        "Original textual order: procedures and basic blocks exactly as \
         the compiler emitted them (the baseline every table starts from).";
      uses_cfa = false;
      plan = (fun profile _ -> Original.plan (Profile.program profile));
    };
    {
      name = "P&H";
      slug = "pettis-hansen";
      aliases = [ "ph" ];
      describe =
        "Pettis & Hansen (PLDI 1990): heaviest-edge basic-block chaining \
         per procedure, fluff split away, closest-is-best procedure \
         ordering over the call graph; oblivious to the cache geometry.";
      uses_cfa = false;
      plan = (fun profile _ -> Pettis_hansen.plan profile);
    };
    {
      name = "Torr";
      slug = "torrellas";
      aliases = [ "torrellas" ];
      describe =
        "Torrellas, Xia & Daigle (HPCA 1995): greedy sequences with the \
         most popular individual blocks — pulled out of their sequences — \
         pinned in the Conflict-Free Area.";
      uses_cfa = true;
      plan =
        (fun profile p ->
          Torrellas.plan profile ~seq_params:p.seq ~cfa_bytes:p.cfa_bytes);
    };
    {
      name = "auto";
      slug = "stc-auto";
      aliases = [ "stc-auto" ];
      describe =
        "Software Trace Cache with automatic seeds (every procedure entry \
         by popularity): two-pass greedy sequences, whole hot sequences \
         fill the Conflict-Free Area.";
      uses_cfa = true;
      plan =
        (fun profile p ->
          Stc.plan profile ~params:p ~seeds:(Stc.auto_seeds profile));
    };
    {
      name = "ops";
      slug = "stc-ops";
      aliases = [ "stc"; "stc-ops" ];
      describe =
        "Software Trace Cache with knowledge-based seeds (the executor \
         operations) — the paper's headline layout, and the one the \
         hardware-trace-cache rows combine with.";
      uses_cfa = true;
      plan =
        (fun profile p ->
          Stc.plan profile ~params:p ~seeds:(Stc.ops_seeds profile));
    };
    {
      name = "codestitcher";
      slug = "codestitcher";
      aliases = [ "cs" ];
      describe =
        "Codestitcher-style hierarchical inter-procedural collocation \
         (Lavaee et al., CC 2019): fallthrough chains stitched within \
         64-byte lines, affine chains packed within 4 KB pages, hottest \
         chains pinned in the Conflict-Free Area.";
      uses_cfa = true;
      plan = (fun profile p -> Codestitcher.plan profile ~cfa_bytes:p.cfa_bytes);
    };
    {
      name = "exttsp";
      slug = "exttsp";
      aliases = [ "ext-tsp" ];
      describe =
        "ExtTSP-style greedy chain merging (Newell & Pupyrev, 2020; the \
         BOLT model): fallthrough/forward/backward-weighted score \
         maximized by best-gain concatenations, hottest chains pinned in \
         the Conflict-Free Area.";
      uses_cfa = true;
      plan = (fun profile p -> Exttsp.plan profile ~cfa_bytes:p.cfa_bytes);
    };
  ]

let all () = builtins

let names () = List.map (fun a -> a.name) builtins

let find name =
  let want = String.lowercase_ascii (String.trim name) in
  let answers a =
    List.exists
      (fun n -> String.lowercase_ascii n = want)
      (a.name :: a.slug :: a.aliases)
  in
  match List.find_opt answers builtins with
  | Some a -> Ok a
  | None ->
    Error
      (Printf.sprintf "unknown layout algorithm %S (valid: %s)" name
         (String.concat ", " (names ())))

let effective_cfa_bytes algo (p : params) =
  if algo.uses_cfa then p.cfa_bytes else 0

let plan algo profile p = algo.plan profile p

let layout algo profile (p : params) =
  Mapping.map_plan (Profile.program profile) ~name:algo.name
    ~cache_bytes:p.cache_bytes
    ~cfa_bytes:(effective_cfa_bytes algo p)
    (algo.plan profile p)
