(* Simulator throughput and allocation benchmark.

   Times full simulation runs (compile excluded) of the image-pipeline
   and histogram applications under both mappings, on the event-driven
   engine (pooled and unpooled data plane), the quasi-static plan-driven
   entry (the [static] axis: [Plan.run_plan] with the schedule pass's
   firing tables arming wake elision and slot-indexed batch dispatch),
   and the preserved polling reference, plus the Figure 13 suite sweep
   sharded across 1/2/4/8 worker domains (the scaling axis of
   docs/PARALLELISM.md), and writes the numbers to BENCH_SIM.json
   (schema bench-sim/v5) so throughput, GC pressure, static coverage,
   indexed-dispatch share, *and* domain scaling are tracked across PRs.
   docs/PERFORMANCE.md explains how to read the output.

   Run with:            dune exec bench/sim_bench.exe
   Fewer repetitions:   BENCH_SIM_REPEATS=1 dune exec bench/sim_bench.exe
   No warmup:           BENCH_SIM_WARMUP=0 dune exec bench/sim_bench.exe
   Different output:    BENCH_SIM_OUT=/tmp/out.json dune exec bench/sim_bench.exe
   Skip the sweep axis: BENCH_SIM_DOMAINS=0 dune exec bench/sim_bench.exe

   The scaling gate (suite sweep at -j 2 must finish in at most 0.9 of
   the -j 1 wall time) arms itself only when the host can actually run
   two domains in parallel (Domain.recommended_domain_count >= 2, or
   BENCH_SIM_FORCE_SCALING=1) — unchanged in v5, and worth restating:
   on a single-core host the axis is still measured and recorded, but
   scaling is not asserted; since v5 the disarmed state is also written
   into the file's provenance fields so a reader of the committed JSON
   knows the domain rows carry no speedup claim and the sweep should be
   re-measured on a multi-core host.

   The static gate (since v4): on fixtures marked rate-static (every on-chip
   kernel statically scheduled, no desyncs possible) the quasi-static
   rows must not lose more than BENCH_SIM_TOLERANCE of the event-driven
   rows' events/s — elision is free to win and forbidden to cost. The
   two runs' results are asserted bit-identical (event counts included)
   before any rate is compared.

   Regression gate (exits non-zero when any fixture×mapping loses more
   than BENCH_SIM_TOLERANCE — default 0.4 — of its baseline events/s;
   works against v1 through v5 files):

     dune exec bench/sim_bench.exe -- --against BENCH_SIM.json *)

open Block_parallel

type fixture = {
  name : string;
  machine : Machine.t;
  n_frames : int;
  rate_static : bool;
      (* Every on-chip kernel lands in a static region (no reactive
         merges, no user tokens), so the static gate below is armed. *)
  build : unit -> App.instance;
}

let fixtures =
  [
    {
      name = "image-pipeline-24x18";
      machine = Machine.default;
      n_frames = 2;
      rate_static = true;
      build =
        (fun () ->
          Apps.Image_pipeline.v ~frame:(Size.v 24 18) ~rate:(Rate.hz 30.)
            ~n_frames:2 ());
    };
    {
      name = "image-pipeline-48x36";
      machine = Machine.default;
      n_frames = 2;
      rate_static = true;
      build =
        (fun () ->
          Apps.Image_pipeline.v ~frame:(Size.v 48 36) ~rate:(Rate.hz 20.)
            ~n_frames:2 ());
    };
    {
      name = "histogram-24x18";
      machine = Machine.default;
      n_frames = 2;
      (* The histogram's configureBins/count pair is a reactive merge,
         excluded from static regions by the schedule pass. *)
      rate_static = false;
      build =
        (fun () ->
          Apps.Histogram_app.v ~frame:(Size.v 24 18) ~rate:(Rate.hz 40.)
            ~n_frames:2 ());
    };
  ]

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> (try max 0 (int_of_string s) with _ -> default)
  | None -> default

let repeats = max 1 (env_int "BENCH_SIM_REPEATS" 5)
let warmup = env_int "BENCH_SIM_WARMUP" 1

(* One timed engine run over [repeats] fresh instances (behaviour state
   is per-instance, so every repetition simulates from scratch), after
   [warmup] untimed runs that fault in code paths and settle the heap.
   Returns wall seconds, the GC deltas of the timed loop only, and the
   totals of the last run. *)
let time_engine fx ~greedy ~engine =
  let prepare () =
    let inst = fx.build () in
    let compiled = Pipeline.compile ~machine:fx.machine inst.App.graph in
    let mapping =
      if greedy then Plan.mapping compiled ~policy:Plan.Greedy
      else Plan.mapping compiled ~policy:Plan.One_to_one
    in
    (compiled.Pipeline.graph, mapping)
  in
  List.iter
    (fun (graph, mapping) ->
      ignore (engine ~graph ~mapping ~machine:fx.machine ()))
    (List.init warmup (fun _ -> prepare ()));
  let prepared = List.init repeats (fun _ -> prepare ()) in
  let gc0 = Metrics.gc_snapshot () in
  let t0 = Unix.gettimeofday () in
  let last =
    List.fold_left
      (fun _ (graph, mapping) ->
        Some (engine ~graph ~mapping ~machine:fx.machine ()))
      None prepared
  in
  let wall = Unix.gettimeofday () -. t0 in
  let gc1 = Metrics.gc_snapshot () in
  let minor_words = gc1.Metrics.gc_minor_words -. gc0.Metrics.gc_minor_words in
  let allocated_words = Metrics.allocated_words ~before:gc0 ~after:gc1 in
  match last with
  | Some (r : Sim.result) -> (wall, minor_words, allocated_words, r)
  | None -> assert false

let total_fires (r : Sim.result) =
  List.fold_left (fun acc (_, ns) -> acc + ns.Sim.node_fires) 0 r.Sim.node_stats

let tolerance () =
  match Sys.getenv_opt "BENCH_SIM_TOLERANCE" with
  | Some s -> (try max 0.01 (float_of_string s) with _ -> 0.4)
  | None -> 0.4

(* The quasi-static axis times the plan-driven entry — the same engine
   the dynamic rows run, plus the schedule pass's firing tables arming
   wake elision (what a bare [bpc simulate] executes). Events/s keeps
   the dynamic rows' denominator: elided wakes count as processed (each
   is an exact stand-in for one eager-engine event), so the two axes
   are directly comparable and their results bit-identical. *)
let time_plan fx ~greedy ~static =
  let policy = if greedy then Plan.Greedy else Plan.One_to_one in
  let prepare () =
    let inst = fx.build () in
    Pipeline.compile ~machine:fx.machine inst.App.graph
  in
  List.iter
    (fun plan -> ignore (Plan.run_plan ~static ~policy plan ()))
    (List.init warmup (fun _ -> prepare ()));
  let prepared = List.init repeats (fun _ -> prepare ()) in
  let gc0 = Metrics.gc_snapshot () in
  let t0 = Unix.gettimeofday () in
  let last =
    List.fold_left
      (fun _ plan -> Some (Plan.run_plan ~static ~policy plan ()))
      None prepared
  in
  let wall = Unix.gettimeofday () -. t0 in
  let gc1 = Metrics.gc_snapshot () in
  let minor_words = gc1.Metrics.gc_minor_words -. gc0.Metrics.gc_minor_words in
  match last with
  | Some (r : Sim.result) -> (wall, minor_words, r)
  | None -> assert false

let run_fixture fx ~greedy =
  let wall, minor_w, alloc_w, r =
    time_engine fx ~greedy ~engine:(fun ~graph ~mapping ~machine () ->
        Sim.run ~graph ~mapping ~machine ())
  in
  let nopool_wall, nopool_minor_w, nopool_alloc_w, nopool_r =
    time_engine fx ~greedy ~engine:(fun ~graph ~mapping ~machine () ->
        Sim.run ~pool:false ~graph ~mapping ~machine ())
  in
  let ref_wall, ref_minor_w, _, ref_r =
    time_engine fx ~greedy ~engine:(fun ~graph ~mapping ~machine () ->
        Sim_reference.run ~graph ~mapping ~machine ())
  in
  let static_wall, static_minor_w, static_r =
    time_plan fx ~greedy ~static:true
  in
  if r.Sim.leftover_items <> 0
     || nopool_r.Sim.leftover_items <> 0
     || ref_r.Sim.leftover_items <> 0
     || static_r.Sim.leftover_items <> 0
  then failwith (fx.name ^ ": benchmark fixture did not drain");
  if nopool_r.Sim.events_processed <> r.Sim.events_processed then
    failwith (fx.name ^ ": pooled and unpooled runs diverged");
  if static_r.Sim.events_processed <> r.Sim.events_processed then
    failwith (fx.name ^ ": static and dynamic event counts diverged");
  if static_r.Sim.static_fallback_events <> 0 then
    failwith (fx.name ^ ": quasi-static run desynced from its tables");
  let per_run = wall /. float_of_int repeats in
  let rate denom = float_of_int (denom * repeats) /. wall in
  let total_events = float_of_int (r.Sim.events_processed * repeats) in
  let per_event w = w /. total_events in
  let pool_stats =
    match r.Sim.pool with
    | Some s -> s
    | None -> failwith (fx.name ^ ": pooled run reported no pool stats")
  in
  let pool_acquires = pool_stats.Pool.hits + pool_stats.Pool.misses in
  let pool_hit_rate =
    if pool_acquires = 0 then 0.
    else float_of_int pool_stats.Pool.hits /. float_of_int pool_acquires
  in
  let minor_reduction =
    if minor_w <= 0. then Float.infinity else nopool_minor_w /. minor_w
  in
  (* The reference engine keeps the v1-era allocation discipline (fresh
     chunks, boxed floats, per-event closures), so its words/event stands
     in for the committed v1 baseline, whose schema predates GC fields. *)
  let minor_reduction_vs_reference =
    if minor_w <= 0. then Float.infinity else ref_minor_w /. minor_w
  in
  let static_coverage =
    let fires = total_fires static_r in
    if fires = 0 then 0.
    else float_of_int static_r.Sim.static_fired /. float_of_int fires
  in
  (* v5: share of static firings that went through the closure-free
     slot-indexed dispatch path (Behaviour.indexed.fire_indexed) rather
     than the generic try_step. *)
  let static_indexed_share =
    if static_r.Sim.static_fired = 0 then 0.
    else
      float_of_int static_r.Sim.static_indexed_fired
      /. float_of_int static_r.Sim.static_fired
  in
  let fields =
    [
      ("fixture", Obs_json.Str fx.name);
      ("mapping", Obs_json.Str (if greedy then "greedy" else "one-to-one"));
      ("repeats", Obs_json.Int repeats);
      ("warmup", Obs_json.Int warmup);
      ("frames", Obs_json.Int fx.n_frames);
      ("events", Obs_json.Int r.Sim.events_processed);
      ("fires", Obs_json.Int (total_fires r));
      ("sim_duration_s", Obs_json.float r.Sim.duration_s);
      ("wall_s_per_run", Obs_json.float per_run);
      ("events_per_s", Obs_json.float (rate r.Sim.events_processed));
      ("fires_per_s", Obs_json.float (rate (total_fires r)));
      ("frames_per_s", Obs_json.float (rate fx.n_frames));
      ("minor_words_per_event", Obs_json.float (per_event minor_w));
      ("allocated_words_per_event", Obs_json.float (per_event alloc_w));
      (* Pool counters are per run (each Sim.run owns a fresh pool). *)
      ("pool_hits", Obs_json.Int pool_stats.Pool.hits);
      ("pool_misses", Obs_json.Int pool_stats.Pool.misses);
      ("pool_hit_rate", Obs_json.float pool_hit_rate);
      ( "nopool_wall_s_per_run",
        Obs_json.float (nopool_wall /. float_of_int repeats) );
      ( "nopool_events_per_s",
        Obs_json.float (total_events /. nopool_wall) );
      ("nopool_minor_words_per_event", Obs_json.float (per_event nopool_minor_w));
      ( "nopool_allocated_words_per_event",
        Obs_json.float (per_event nopool_alloc_w) );
      ("minor_words_reduction", Obs_json.float minor_reduction);
      ("reference_wall_s_per_run",
       Obs_json.float (ref_wall /. float_of_int repeats));
      ( "reference_minor_words_per_event",
        Obs_json.float (per_event ref_minor_w) );
      ( "minor_words_reduction_vs_reference",
        Obs_json.float minor_reduction_vs_reference );
      ("speedup_vs_reference", Obs_json.float (ref_wall /. wall));
      ("rate_static", Obs_json.Bool fx.rate_static);
      ( "static_wall_s_per_run",
        Obs_json.float (static_wall /. float_of_int repeats) );
      ("static_events_per_s", Obs_json.float (total_events /. static_wall));
      ( "static_minor_words_per_event",
        Obs_json.float (per_event static_minor_w) );
      ("static_regions", Obs_json.Int static_r.Sim.static_regions);
      ("static_fired", Obs_json.Int static_r.Sim.static_fired);
      ("static_indexed_fired", Obs_json.Int static_r.Sim.static_indexed_fired);
      ("static_indexed_share", Obs_json.float static_indexed_share);
      ("static_elided_events", Obs_json.Int static_r.Sim.static_elided_events);
      ("static_coverage", Obs_json.float static_coverage);
    ]
  in
  Printf.printf
    "%-24s %-10s %8.2f ms/run  %10.0f events/s  %6.1f w/event (%4.1fx < \
     nopool, %4.1fx < reference, pool %4.1f%%)  %5.2fx vs reference\n\
     %!"
    fx.name
    (if greedy then "greedy" else "one-to-one")
    (per_run *. 1e3)
    (rate r.Sim.events_processed)
    (per_event minor_w) minor_reduction minor_reduction_vs_reference
    (100. *. pool_hit_rate)
    (ref_wall /. wall);
  Printf.printf
    "%-24s %-10s %8.2f ms/run  %10.0f events/s  quasi-static: %d region(s), \
     %.0f%% coverage, %.0f%% indexed, %d elided%s\n\
     %!"
    "  quasi-static"
    (if greedy then "greedy" else "one-to-one")
    (static_wall /. float_of_int repeats *. 1e3)
    (total_events /. static_wall)
    static_r.Sim.static_regions
    (100. *. static_coverage)
    (100. *. static_indexed_share)
    static_r.Sim.static_elided_events
    (if fx.rate_static then "" else "  (not rate-static; gate off)");
  (* The static gate: on a rate-static fixture the quasi-static rows may
     not lose more than the shared tolerance of the event-driven rows'
     events/s. Numerators and denominators are identical by the
     bit-exactness asserts above, so this is purely a wall-time bound. *)
  if fx.rate_static then begin
    let tol = tolerance () in
    let dyn_eps = rate r.Sim.events_processed in
    let static_eps = total_events /. static_wall in
    if static_eps < dyn_eps *. (1. -. tol) then begin
      Printf.printf
        "STATIC REGRESSION: %s %s quasi-static %.0f events/s < (1 - %.2f) x \
         event-driven %.0f events/s\n"
        fx.name
        (if greedy then "greedy" else "one-to-one")
        static_eps tol dyn_eps;
      exit 1
    end
  end;
  Obs_json.Obj fields

(* ---- the domain-scaling axis ------------------------------------------ *)

(* One suite sweep (all Figure 13 entries, both mappings) per domain
   count. The merged outcomes are bit-identical for every -j
   (docs/PARALLELISM.md), which the axis asserts by comparing total
   event counts; what varies — and what this axis records — is wall
   time and the steal/stat telemetry. *)
let sweep_jobs () =
  List.concat_map
    (fun (e : Apps.Suite.entry) ->
      List.map
        (fun policy ->
          {
            Sweep.label = e.Apps.Suite.label;
            machine = e.Apps.Suite.machine;
            policy;
            build = (fun () -> (e.Apps.Suite.build ()).App.graph);
          })
        [ Plan.One_to_one; Plan.Greedy ])
    Apps.Suite.entries

let run_sweep ~domains =
  Sweep.with_pool ~domains @@ fun pool ->
  let t0 = Unix.gettimeofday () in
  let outcomes = Sweep.simulate_jobs pool (sweep_jobs ()) in
  let wall = Unix.gettimeofday () -. t0 in
  let events =
    List.fold_left
      (fun acc (o : Sweep.outcome) ->
        acc + o.Sweep.o_result.Sim.events_processed)
      0 outcomes
  in
  let steals =
    List.fold_left
      (fun acc (d : Sweep.domain_report) -> acc + d.Sweep.d_steals)
      0 (Sweep.report pool)
  in
  (wall, events, List.length outcomes, steals)

let domain_axis () =
  let cores = Domain.recommended_domain_count () in
  let force = Sys.getenv_opt "BENCH_SIM_FORCE_SCALING" = Some "1" in
  print_endline "==== suite sweep domain scaling ====";
  ignore (run_sweep ~domains:1) (* warmup: fault in every suite app *);
  let levels = [ 1; 2; 4; 8 ] in
  let runs =
    List.map (fun d -> (d, run_sweep ~domains:d)) levels
  in
  let base_wall, base_events, jobs, _ =
    match runs with (1, r) :: _ -> r | _ -> assert false
  in
  List.iter
    (fun (_, (_, events, _, _)) ->
      if events <> base_events then
        failwith "suite sweep event counts diverged across -j")
    runs;
  let rows =
    List.map
      (fun (d, (wall, events, jobs, steals)) ->
        let speedup = if wall > 0. then base_wall /. wall else 0. in
        Printf.printf
          "suite-sweep               -j %-7d %8.2f ms      %10.0f events/s  \
           %5.2fx vs -j 1  (%d steals)\n\
           %!"
          d (wall *. 1e3)
          (if wall > 0. then float_of_int events /. wall else 0.)
          speedup steals;
        Obs_json.Obj
          [
            ("domains", Obs_json.Int d);
            ("jobs", Obs_json.Int jobs);
            ("events", Obs_json.Int events);
            ("wall_s", Obs_json.float wall);
            ( "events_per_s",
              Obs_json.float
                (if wall > 0. then float_of_int events /. wall else 0.) );
            ("speedup_vs_1", Obs_json.float speedup);
            ("steals", Obs_json.Int steals);
          ])
      runs
  in
  let gate_armed = cores >= 2 || force in
  if gate_armed then begin
    let wall2 =
      match List.assoc_opt 2 runs with
      | Some (w, _, _, _) -> w
      | None -> assert false
    in
    if wall2 > base_wall *. 0.9 then begin
      Printf.printf
        "SCALING REGRESSION: -j 2 sweep took %.1f ms > 0.9 x -j 1 (%.1f ms) \
         on a %d-core host\n"
        (wall2 *. 1e3) (base_wall *. 1e3) cores;
      exit 1
    end
    else
      Printf.printf "scaling gate: -j 2 %.2fx vs -j 1 (<= 0.9 required) ok\n"
        (base_wall /. wall2)
  end
  else
    Printf.printf
      "scaling gate: DISARMED — host reports %d core%s (< 2), so the -j 2 \
       speedup bound is not asserted; domain rows below are recorded \
       without a scaling claim. Set BENCH_SIM_FORCE_SCALING=1 to arm \
       anyway, or re-run on a multi-core host.\n"
      cores
      (if cores = 1 then "" else "s");
  ignore jobs;
  ( rows,
    [ ("cores", Obs_json.Int cores);
      ("scaling_gate_armed", Obs_json.Bool gate_armed);
    ]
    @
    if gate_armed then []
    else
      [
        ( "scaling_todo",
          Obs_json.Str
            "gate disarmed: recorded on a host with < 2 usable cores; \
             re-measure the domain axis on a multi-core host before \
             reading any speedup from these rows" );
      ] )

(* ---- regression gate -------------------------------------------------- *)

let row_key row =
  match (Obs_json.member "fixture" row, Obs_json.member "mapping" row) with
  | Some (Obs_json.Str f), Some (Obs_json.Str m) -> Some (f, m)
  | _ -> None

let row_events_per_s row =
  Option.bind (Obs_json.member "events_per_s" row) Obs_json.to_float_opt

let baseline_rows path =
  match Obs_json.member "fixtures" (Obs_json.parse_file path) with
  | Some (Obs_json.List rows) -> rows
  | _ -> failwith (path ^ ": no \"fixtures\" list")

(* Exits non-zero when any fixture×mapping present in both files lost
   more than [tolerance] of its baseline events/s. Hosts differ, so the
   gate compares a fresh run against a baseline *recorded on the same
   host* (CI regenerates the baseline first) — the committed file is only
   a fallback for quick local checks. Wall-clock noise on millisecond
   fixtures easily reaches tens of percent on shared runners, so the
   default tolerance is wide and BENCH_SIM_TOLERANCE overrides it;
   the gate exists to catch order-of-magnitude regressions, while fine
   drift is read off the committed BENCH_SIM.json ratios. *)
let check_against ~path current_rows =
  let tolerance = tolerance () in
  let failures = ref 0 in
  List.iter
    (fun baseline_row ->
      match (row_key baseline_row, row_events_per_s baseline_row) with
      | Some (f, m), Some base_eps when base_eps > 0. -> (
        let current =
          List.find_opt (fun row -> row_key row = Some (f, m)) current_rows
        in
        match Option.bind current row_events_per_s with
        | Some cur_eps ->
          let ratio = cur_eps /. base_eps in
          let ok = ratio >= 1. -. tolerance in
          if not ok then incr failures;
          Printf.printf "%-24s %-10s %10.0f -> %10.0f events/s  (%+.1f%%)%s\n"
            f m base_eps cur_eps
            (100. *. (ratio -. 1.))
            (if ok then "" else "  REGRESSION")
        | None ->
          incr failures;
          Printf.printf "%-24s %-10s missing from current run\n" f m)
      | _ -> ())
    (baseline_rows path);
  if !failures > 0 then begin
    Printf.printf "%d regression(s) beyond %.0f%% vs %s\n" !failures
      (100. *. tolerance) path;
    exit 1
  end
  else Printf.printf "no events/s regression beyond %.0f%% vs %s\n"
      (100. *. tolerance) path

let () =
  let against =
    match Sys.argv with
    | [| _ |] -> None
    | [| _; "--against"; path |] -> Some path
    | _ ->
      prerr_endline "usage: sim_bench [--against BASELINE.json]";
      exit 2
  in
  print_endline "==== simulator throughput ====";
  let rows =
    List.concat_map
      (fun fx ->
        let one_to_one = run_fixture fx ~greedy:false in
        let greedy = run_fixture fx ~greedy:true in
        [ one_to_one; greedy ])
      fixtures
  in
  match against with
  | Some path -> check_against ~path rows
  | None ->
    let domain_rows, host_fields =
      if env_int "BENCH_SIM_DOMAINS" 1 = 0 then ([], [])
      else domain_axis ()
    in
    let out =
      Obs_json.Obj
        ([
           ("schema", Obs_json.Str "bench-sim/v5");
           ("repeats", Obs_json.Int repeats);
           ("warmup", Obs_json.Int warmup);
         ]
        @ host_fields
        @ [
            ("fixtures", Obs_json.List rows);
            ("domains", Obs_json.List domain_rows);
          ])
    in
    let path =
      Option.value (Sys.getenv_opt "BENCH_SIM_OUT") ~default:"BENCH_SIM.json"
    in
    Obs_json.write_file ~path out;
    Printf.printf "wrote %s\n" path
