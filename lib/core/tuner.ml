module L = Stc_layout
module F = Stc_fetch

type candidate = {
  t_exec : int;
  t_branch : float;
  t_cfa_kb : int;
  t_seeds : [ `Auto | `Ops ];
}

type outcome = { chosen : candidate; train_bandwidth : float; evaluated : int }

let space =
  List.concat_map
    (fun t_seeds ->
      List.concat_map
        (fun t_exec ->
          List.concat_map
            (fun t_branch ->
              List.map
                (fun t_cfa_kb -> { t_exec; t_branch; t_cfa_kb; t_seeds })
                [ 4; 8; 16 ])
            [ 0.1; 0.4 ])
        [ 10; 50; 250 ])
    [ `Auto; `Ops ]

let params ~cache_kb c =
  L.Algo.params ~exec_threshold:c.t_exec ~branch_threshold:c.t_branch
    ~cache_bytes:(cache_kb * 1024) ~cfa_bytes:(c.t_cfa_kb * 1024) ()

let algo_name c = match c.t_seeds with `Auto -> "auto" | `Ops -> "ops"

let layout_of ?(ctx = Run.default) pl ~cache_kb c =
  Experiments.pipeline_layouts ~ctx pl ~params:(params ~cache_kb c)
    (algo_name c)

let tune ?(ctx = Run.default) ?(cache_kb = 32) (pl : Pipeline.t) =
  (* Neither layout building nor scoring records into [ctx.metrics] (nor
     opens the store against it), so the exported registry does not
     depend on [ctx.jobs] — only the winner's held-out evaluation is
     recorded (by the caller). *)
  let ctx = { ctx with Run.metrics = None } in
  let build = Experiments.pipeline_layouts ~ctx pl in
  let training =
    { Experiments.program = pl.Pipeline.program; trace = pl.Pipeline.training }
  in
  let cells =
    List.map
      (fun c ->
        Experiments.cell ~table:"tuner" training ~cache_kb
          (build ~params:(params ~cache_kb c) (algo_name c)))
      space
  in
  let scores =
    Array.of_list
      (List.map F.Engine.bandwidth
         (Experiments.run_cells ~ctx ~label:"tune" cells))
  in
  (* first-seen candidate wins ties *)
  let best = ref 0 in
  Array.iteri (fun i bw -> if bw > scores.(!best) then best := i) scores;
  {
    chosen = List.nth space !best;
    train_bandwidth = scores.(!best);
    evaluated = Array.length scores;
  }
