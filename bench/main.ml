(* The benchmark harness.

   Two halves:

   1. Figure regeneration — every table and figure of the paper is rebuilt
      from scratch and printed, exactly as `bpc report all` does. This is
      the reproduction artifact recorded in EXPERIMENTS.md.

   2. Bechamel micro-benchmarks — one `Test.make` per experiment driver and
      per performance-relevant component (dataflow analysis, each transform,
      the simulator, the kernels' inner loops, the annealer, the event
      heap), so regressions in the compiler itself are visible.

   Run with: dune exec bench/main.exe
   Skip the (slower) figure regeneration with: BENCH_ONLY=1 dune exec bench/main.exe *)

open Block_parallel
open Bechamel
open Toolkit

let null_ppf = Format.make_formatter (fun _ _ _ -> ()) ignore

(* ---- shared fixtures --------------------------------------------------- *)

let small = Size.v 24 18

let pipeline_graph () =
  (Apps.Image_pipeline.v ~frame:small ~rate:(Rate.hz 30.) ~n_frames:1 ())
    .App.graph

let compiled_pipeline () =
  Pipeline.compile ~machine:Machine.default (pipeline_graph ())

(* ---- micro-benchmarks --------------------------------------------------- *)

let bench_analysis =
  Test.make ~name:"dataflow-analyze (fig 2)"
    (Staged.stage @@ fun () -> ignore (Dataflow.analyze (pipeline_graph ())))

let bench_align =
  Test.make ~name:"align-trim (fig 3/8)"
    (Staged.stage @@ fun () ->
     let g = pipeline_graph () in
     ignore (Align.run g))

let bench_buffering =
  Test.make ~name:"buffer-insertion (fig 3)"
    (Staged.stage @@ fun () ->
     let g = pipeline_graph () in
     ignore (Align.run g);
     ignore (Buffering.run g))

let bench_compile =
  Test.make ~name:"full-compile (fig 4)"
    (Staged.stage @@ fun () -> ignore (compiled_pipeline ()))

let bench_parallelize_math =
  Test.make ~name:"stripe-ranges (fig 10)"
    (Staged.stage @@ fun () ->
     ignore
       (Split_join.stripe_ranges ~frame_w:96
          ~window:(Conv.input_window ~w:5 ~h:5)
          ~parts:5))

let bench_multiplex =
  Test.make ~name:"greedy-multiplex (fig 12)"
    (let compiled = compiled_pipeline () in
     Staged.stage @@ fun () ->
     ignore (Multiplex.greedy compiled.Pipeline.machine compiled.Pipeline.graph))

let bench_simulate =
  Test.make ~name:"simulate-one-frame (fig 13 inner loop)"
    (Staged.stage @@ fun () ->
     let inst =
       Apps.Histogram_app.v ~frame:(Size.v 12 9) ~rate:(Rate.hz 30.)
         ~n_frames:1 ()
     in
     let g = inst.App.graph in
     ignore
       (Sim.run ~graph:g ~mapping:(Mapping.one_to_one g)
          ~machine:Machine.default ()))

let bench_reuse_math =
  Test.make ~name:"reuse-stats (fig 5)"
    (Staged.stage @@ fun () ->
     ignore (Reuse.of_window (Conv.input_window ~w:5 ~h:5)))

let bench_placement =
  Test.make ~name:"simulated-annealing-placement"
    (let compiled = compiled_pipeline () in
     let mapping = Plan.mapping compiled ~policy:Plan.One_to_one in
     let an = compiled.Pipeline.analysis in
     Staged.stage @@ fun () -> ignore (Placement.place an mapping))

let bench_conv_kernel =
  Test.make ~name:"golden-convolve-32x32"
    (let img = Image.Gen.ramp (Size.v 32 32) in
     let k = Image.Gen.constant (Size.v 5 5) 0.04 in
     Staged.stage @@ fun () -> ignore (Image_ops.convolve img ~kernel:k))

let bench_median_kernel =
  Test.make ~name:"golden-median-32x32"
    (let img = Image.Gen.ramp (Size.v 32 32) in
     Staged.stage @@ fun () -> ignore (Image_ops.median img ~w:3 ~h:3))

let bench_lang_parse =
  Test.make ~name:"lang-parse (.bp front end)"
    (let src =
       "input cam frame=24x18 rate=20 frames=1\n\
        const coeff size=5x5 value=0.04\n\
        const bounds bins=16 lo=-8 hi=8\n\
        kernel med median 3 3\nkernel conv conv 5 5\n\
        kernel diff subtract\nkernel hist histogram bins=16\n\
        kernel total merge bins=16\noutput stats window=16x1\n\
        cam.out -> med.in\ncam.out -> conv.in\ncoeff.out -> conv.coeff\n\
        med.out -> diff.in0\nconv.out -> diff.in1\ndiff.out -> hist.in\n\
        bounds.out -> hist.bins\nhist.out -> total.in\n\
        total.out -> stats.in\ndep cam -> total\n"
     in
     Staged.stage @@ fun () -> ignore (Lang.parse src))

let bench_schedulability =
  Test.make ~name:"schedulability-check"
    (let compiled = compiled_pipeline () in
     Staged.stage @@ fun () ->
     ignore
       (Schedulability.check compiled.Pipeline.machine compiled.Pipeline.graph))

let bench_heap =
  Test.make ~name:"event-heap-1k"
    (Staged.stage @@ fun () ->
     let h = Bp_sim.Heap.create ~dummy:0 () in
     for i = 0 to 999 do
       Bp_sim.Heap.push h ~time:(float_of_int ((i * 7919) mod 997)) i
     done;
     while not (Bp_sim.Heap.is_empty h) do
       ignore (Bp_sim.Heap.pop h)
     done)

let benchmarks =
  [
    bench_analysis;
    bench_align;
    bench_buffering;
    bench_compile;
    bench_parallelize_math;
    bench_multiplex;
    bench_simulate;
    bench_reuse_math;
    bench_placement;
    bench_lang_parse;
    bench_schedulability;
    bench_conv_kernel;
    bench_median_kernel;
    bench_heap;
  ]

(* Bechamel's full analysis pipeline, rendered as a simple table. *)
let run_benchmarks () =
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) () in
  let instances = Instance.[ monotonic_clock ] in
  let tests = Test.make_grouped ~name:"block-parallel" benchmarks in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]) instance raw) instances
  in
  let table = Table.create ~title:"micro-benchmarks" [ "benchmark"; "ns/run" ] in
  List.iter
    (fun result ->
      Hashtbl.iter
        (fun name ols ->
          let ns =
            match Analyze.OLS.estimates ols with
            | Some [ est ] -> Printf.sprintf "%.0f" est
            | _ -> "-"
          in
          Table.add_row table [ name; ns ])
        result)
    results;
  Table.print table

(* A metrics snapshot of one instrumented reference run (the running
   example under the greedy mapping), printed with the bechamel numbers so
   a perf PR shows *where* time moved, not just that it moved. Set
   BENCH_METRICS=path to also write the snapshot as JSON. *)
let metrics_snapshot () =
  let compiled = compiled_pipeline () in
  let obs = Instrument.create ~graph:compiled.Pipeline.graph () in
  let result =
    Sim.run
      ~observer:(Instrument.observer obs)
      ~channel_observer:(Instrument.channel_observer obs)
      ~graph:compiled.Pipeline.graph
      ~mapping:(Plan.mapping compiled ~policy:Plan.Greedy)
      ~machine:compiled.Pipeline.machine ()
  in
  Instrument.finalize obs ~result;
  let m = Instrument.metrics obs in
  print_endline "==== metrics snapshot (image-pipeline, greedy) ====";
  Format.printf "%a@." Metrics.pp m;
  match Sys.getenv_opt "BENCH_METRICS" with
  | Some path ->
    Obs_json.write_file ~path (Metrics.to_json m);
    Printf.printf "wrote %s\n" path
  | None -> ()

let () =
  if Sys.getenv_opt "BENCH_ONLY" = None then begin
    print_endline "==== figure and table reproduction ====";
    Bp_report.Report.all Format.std_formatter
  end
  else ignore null_ppf;
  print_endline "==== compiler micro-benchmarks ====";
  run_benchmarks ();
  metrics_snapshot ()
