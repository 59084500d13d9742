(* The repository benchmark: closed-loop build -> compile -> simulate ->
   verify requests through the public API, one named workload per run.
   README.md in this directory explains every metric and workload;
   run.py builds this program and drives it.

     bpbench.exe run --workload W --seed N --seconds S --trace 0|1
                     --reference FILE --out DIR
     bpbench.exe reference --workload W --seed N --out FILE *)

open Block_parallel

let now_ns = Layers.now_ns
let s_of_ns = Layers.s_of_ns

(* {1 Workloads} *)

type config = {
  label : string;
  machine : Machine.t;
  policy : Plan.policy;
  build : seed:int -> App.instance;
}

type workload = Stream | Large | Suite | Observed

let workload_of_string = function
  | "stream" -> Stream
  | "large" -> Large
  | "suite" -> Suite
  | "observed" -> Observed
  | w -> failwith ("unknown workload " ^ w)

let policies = [ Plan.One_to_one; Plan.Greedy ]

let image_pipeline ~frame ~n_frames machine =
  List.map
    (fun policy ->
      {
        label =
          Printf.sprintf "image-pipeline-%dx%d/%s" frame.Size.w
            frame.Size.h (Plan.policy_name policy);
        machine;
        policy;
        build =
          (fun ~seed ->
            Apps.Image_pipeline.v ~seed ~frame ~rate:(Rate.hz 30.) ~n_frames ());
      })
    policies

(* The default PE on a chip big enough for the 254-PE one-to-one mapping
   of a 192x144 frame. *)
let large_machine =
  let d = Machine.default in
  Machine.v ~max_pes:512 ~target_utilization:d.Machine.target_utilization
    ~multiplex_headroom:d.Machine.multiplex_headroom d.Machine.pe

(* The Figure 13 suite with the seed threaded into each builder. Frame,
   rate and frame count come from the suite's own entries, and the seeded
   graph must match the entry's, so the two cannot drift apart. *)
let suite_configs () =
  List.concat_map
    (fun (e : Apps.Suite.entry) ->
      let proto = e.Apps.Suite.build () in
      let frame = proto.App.frame
      and rate = proto.App.rate
      and n_frames = proto.App.n_frames in
      let build ~seed =
        match e.Apps.Suite.label with
        | "1" | "1F" -> Apps.Bayer_app.v ~seed ~frame ~rate ~n_frames ()
        | "2" | "2F" -> Apps.Histogram_app.v ~seed ~frame ~rate ~n_frames ()
        | "3" -> Apps.Parallel_buffer.v ~seed ~frame ~rate ~n_frames ()
        | "4" -> Apps.Multi_conv.v ~seed ~frame ~rate ~n_frames ()
        | _ -> Apps.Image_pipeline.v ~seed ~frame ~rate ~n_frames ()
      in
      if Graph.size (build ~seed:0).App.graph <> Graph.size proto.App.graph
      then failwith ("suite entry " ^ e.Apps.Suite.label ^ ": builder mismatch");
      List.map
        (fun policy ->
          {
            label = e.Apps.Suite.label ^ "/" ^ Plan.policy_name policy;
            machine = e.Apps.Suite.machine;
            policy;
            build;
          })
        policies)
    Apps.Suite.entries

let configs = function
  | Stream | Observed ->
    image_pipeline ~frame:(Size.v 48 36) ~n_frames:16 Machine.default
  | Large -> image_pipeline ~frame:(Size.v 192 144) ~n_frames:2 large_machine
  | Suite -> suite_configs ()

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* {1 Accounting} *)

type variant =
  | Plain  (** The workload as a user runs it: the end-to-end samples. *)
  | Traced  (** Kernels wrapped; passes, counters and spans recorded. *)
  | Unobserved  (** [observed] only: the same request without observers. *)

type sample = {
  label : string;  (** The configuration's. *)
  variant : variant;
  build_s : float;
  compile_s : float;
  observe_s : float;  (** Observer set-up and finalization ([observed]). *)
  sim_s : float;
  verify_s : float;
  events : int;
  alloc_words : float;  (** Across [run_plan]; [nan] when not measured. *)
  scale_setup : float;
      (** Host-speed factors from [Calibrate] (1 when not measured): for
          build + compile, for the rest, and for the whole request. *)
  scale_sim : float;
  scale : float;
}

let setup_s s = s.build_s +. s.compile_s
let total_s s = s.build_s +. s.compile_s +. s.observe_s +. s.sim_s +. s.verify_s

(* At the nominal host speed (see calibrate.ml). *)
let scaled_setup_s s = setup_s s *. s.scale_setup
let scaled_sim_s s = s.sim_s *. s.scale_sim

let scaled_total_s s =
  scaled_setup_s s +. ((s.observe_s +. s.sim_s +. s.verify_s) *. s.scale_sim)

let samples = ref []
let attempted = ref 0
let failed = ref 0

(* Per-layer sums over traced requests; [layer_mean] divides by their
   count. Sweep-level numbers sum over traced sweeps instead. *)
let layer = Hashtbl.create 64
let traced_requests = ref 0
let sweep_layer = Hashtbl.create 8
let traced_sweeps = ref 0
let add tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
let layer_mean k =
  Option.value ~default:0. (Hashtbl.find_opt layer k)
  /. float_of_int (max 1 !traced_requests)

let pending_self_test = ref true

(* Every checked request goes through here: golden images, then the
   reference engine's statistics on the same plan. *)
let gate ~refs (cfg : config) inst plan r ~golden_ok =
  let got = Gate.signature inst plan ~policy:cfg.policy r in
  let err =
    match List.assoc_opt cfg.label refs with
    | None -> Some "no reference result for this configuration"
    | Some want ->
      if !pending_self_test then begin
        Gate.check_perturbation_caught ~want inst plan ~policy:cfg.policy r;
        pending_self_test := false
      end;
      if golden_ok then Gate.compare_signature ~want got
      else Some "outputs differ from the golden images"
  in
  incr attempted;
  Option.iter
    (fun e ->
      incr failed;
      Printf.eprintf "FAILED %s: %s\n%!" cfg.label e)
    err;
  got

let gc_counts () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections)

let record_counts (plan : Plan.t) (r : Sim.result) =
  let fires =
    List.fold_left
      (fun a (_, (ns : Sim.node_stats)) -> a + ns.Sim.node_fires)
      0 r.Sim.node_stats
  in
  List.iter
    (fun (k, v) -> add layer k (float_of_int v))
    ([
       ("sim.events", r.Sim.events_processed);
       ("sim.elided", r.Sim.static_elided_events);
       ("sim.static_fired", r.Sim.static_fired);
       ("sim.indexed_fired", r.Sim.static_indexed_fired);
       ("sim.fires", fires);
       ("sim.fallback_events", r.Sim.static_fallback_events);
       ("sim.pes", Array.length r.Sim.procs);
       ("compiler.nodes", Graph.size plan.Plan.graph);
       ("compiler.channels", List.length (Graph.channels plan.Plan.graph));
       ( "compiler.schedule.recorded_firings",
         plan.Plan.schedule.Static_schedule.recorded_firings );
     ]
    @
    match r.Sim.pool with
    | Some p ->
      [
        ("image.pool.hits", p.Pool.hits);
        ("image.pool.misses", p.Pool.misses);
        ("image.pool.live", p.Pool.live);
      ]
    | None -> [])

let record_kernel_layer ~request ts =
  let attempts, fires, starved, sim_ns, compile_ns = Layers.take () in
  add layer "kernels.attempts" (float_of_int attempts);
  add layer "kernels.fires" (float_of_int fires);
  add layer "kernels.starved_calls" (float_of_int starved);
  add layer "kernels.self_s" (s_of_ns sim_ns);
  add layer "kernels.schedule_self_s" (s_of_ns compile_ns);
  Layers.counter ~request ts
    [ ("fires", fires); ("attempts", attempts); ("starved_calls", starved) ]

let record_pass_layer (plan : Plan.t) ~build_s passes =
  add layer "compiler.build_s" build_s;
  List.iter (fun (p, s) -> add layer ("compiler.pass." ^ p ^ ".s") s) passes;
  let timed =
    List.fold_left (fun a (t : Pass.timing) -> a +. t.Pass.wall_s) 0. plan.Plan.timings
  in
  add layer "compiler.timings_gap_s"
    (List.fold_left (fun a (_, s) -> a +. s) 0. passes -. timed)

(* The [bpc simulate --health --metrics] observers; [count] wraps each
   closure to count invocations. *)
let observers ~count (plan : Plan.t) =
  let graph = plan.Plan.graph in
  let ins = Instrument.create ~graph () and hlt = Health.create ~graph () in
  let calls = ref 0 in
  let observer = Instrument.observer ins
  and channel_observer = Instrument.channel_observer ins
  and state_observer = Health.state_observer hlt in
  let finalize r =
    Instrument.finalize ins ~result:r;
    Health.finalize hlt ~result:r ()
  in
  if not count then (observer, channel_observer, state_observer, finalize, calls)
  else
    ( (fun ~time_s ~proc ~node ~method_name ~service_s ->
        incr calls;
        observer ~time_s ~proc ~node ~method_name ~service_s),
      (fun ~time_s ~chan_id ~node ~proc ~event ~depth ->
        incr calls;
        channel_observer ~time_s ~chan_id ~node ~proc ~event ~depth),
      (fun ~time_s ~node ~proc ~state ~chan ->
        incr calls;
        state_observer ~time_s ~node ~proc ~state ~chan),
      finalize,
      calls )

(* What the user waits for after the simulation: the golden-image check
   and the real-time verdict. True when the images are exact. *)
let verify inst r =
  let _, golden_ok = App.verify inst r in
  ignore
    (Sim.real_time_verdict r ~expected_frames:inst.App.n_frames
       ~period_s:(App.period_s inst) ~allowed_leftover:inst.App.allowed_leftover
       ()
      : Sim.verdict);
  golden_ok

(* The traced requests of a run must reproduce its untraced ones. *)
let check_traced_reproduces ~traced ~plain =
  Hashtbl.iter
    (fun label got ->
      match Hashtbl.find_opt plain label with
      | Some want when Gate.compare_signature ~want got = None -> ()
      | _ ->
        incr failed;
        Printf.eprintf "FAILED %s: traced result differs from untraced\n%!"
          label)
    traced

(* {1 One closed-loop request} *)

let request ~refs ~seed ~observe ~variant ~request_id (cfg : config) =
  let traced = variant = Traced in
  let observe = observe && variant <> Unobserved in
  if traced then Layers.begin_request ();
  (* The host speed is measured before, between set-up and simulation,
     and after an untraced request, outside its timed intervals. *)
  let calibrate () = if traced then 1. else Calibrate.measure () in
  let c0 = calibrate () in
  let t0 = now_ns () in
  let inst = cfg.build ~seed in
  let inst = if traced then Layers.instrument inst else inst in
  let t1 = now_ns () in
  let marks = ref [] in
  let after_pass =
    if traced then Some (fun ~pass _ -> marks := (pass, now_ns ()) :: !marks)
    else None
  in
  let cw0 = Gc.minor_words () in
  let plan = Pipeline.compile ?after_pass ~machine:cfg.machine inst.App.graph in
  let cw1 = Gc.minor_words () in
  let t2 = now_ns () in
  let c1 = calibrate () in
  let t2c = now_ns () in
  let obs = if observe then Some (observers ~count:traced plan) else None in
  let observer = Option.map (fun (o, _, _, _, _) -> o) obs
  and channel_observer = Option.map (fun (_, c, _, _, _) -> c) obs
  and state_observer = Option.map (fun (_, _, s, _, _) -> s) obs in
  let gc0 = if traced then gc_counts () else (0, 0) in
  if traced then ignore (Layers.drain_gc () : float);
  let t2' = now_ns () in
  let w0 = Gc.minor_words () in
  let r =
    Plan.run_plan ?observer ?channel_observer ?state_observer
      ~policy:cfg.policy plan ()
  in
  let w1 = Gc.minor_words () in
  let t3 = now_ns () in
  Option.iter (fun (_, _, _, finalize, _) -> finalize r) obs;
  let t4 = now_ns () in
  let golden_ok = verify inst r in
  let t5 = now_ns () in
  let c2 = calibrate () in
  let s =
    {
      label = cfg.label;
      variant;
      build_s = s_of_ns (t1 - t0);
      compile_s = s_of_ns (t2 - t1);
      observe_s = s_of_ns (t2' - t2c + (t4 - t3));
      sim_s = s_of_ns (t3 - t2');
      verify_s = s_of_ns (t5 - t4);
      events = r.Sim.events_processed;
      alloc_words = w1 -. w0;
      scale_setup = (if traced then 1. else Calibrate.scale [ c0; c1 ]);
      scale_sim = (if traced then 1. else Calibrate.scale [ c1; c2 ]);
      scale = (if traced then 1. else Calibrate.scale [ c0; c1; c2 ]);
    }
  in
  if traced then begin
    let gc1 = gc_counts () in
    add layer "gc.pause_s" (Layers.drain_gc ());
    add layer "gc.minor_collections" (float_of_int (fst gc1 - fst gc0));
    add layer "gc.major_collections" (float_of_int (snd gc1 - snd gc0));
    record_kernel_layer ~request:request_id t3;
    record_counts plan r;
    let passes, _ =
      List.fold_left
        (fun (acc, prev) (p, t) -> ((p, s_of_ns (t - prev)) :: acc, t))
        ([], t1) (List.rev !marks)
    in
    record_pass_layer plan ~build_s:s.build_s (List.rev passes);
    add layer "compiler.setup_s" (setup_s s);
    add layer "compiler.alloc_words" (cw1 -. cw0);
    add layer "sim.run_plan_s" s.sim_s;
    add layer "apps.verify_s" s.verify_s;
    Option.iter
      (fun (_, _, _, _, calls) -> add layer "obs.callbacks" (float_of_int !calls))
      obs;
    incr traced_requests;
    let root = Layers.span ~request:request_id ~tid:0 "request" t0 t5 in
    let child name a b =
      Layers.span ~parent:root ~request:request_id ~tid:0 name a b
    in
    ignore (child "build" t0 t1 : int);
    let compile = child "compile" t1 t2 in
    ignore
      (List.fold_left
         (fun prev (p, t) ->
           ignore
             (Layers.span ~parent:compile ~request:request_id ~tid:0
                ("pass." ^ p) prev t
               : int);
           t)
         t1 (List.rev !marks)
        : int);
    if observe then ignore (child "observe" t2c t2' : int);
    ignore (child "simulate" t2' t3 : int);
    ignore (child "verify" t4 t5 : int)
  end;
  (s, gate ~refs cfg inst plan r ~golden_ok)

(* {1 Run loops} *)

(* Closed loop, one client. Each round issues every configuration once
   in a seeded order; a traced run alternates which variant goes first. *)
let run_single ~refs ~seed ~seconds ~traced ~observe cfgs =
  let rng = Random.State.make [| seed |] in
  let variants =
    if not traced then [ Plain ]
    else if observe then [ Traced; Plain; Unobserved ]
    else [ Traced; Plain ]
  in
  let next_id = ref 0 in
  let traced_sigs = Hashtbl.create 4 and plain_sigs = Hashtbl.create 4 in
  let one ~timed cfg variant =
    (* Each request starts from a collected heap, as a fresh [bpc
       simulate] process does, instead of paying the previous request's
       GC debt. Untimed. *)
    Gc.full_major ();
    incr next_id;
    match request ~refs ~seed ~observe ~variant ~request_id:!next_id cfg with
    | s, got ->
      if timed then samples := s :: !samples;
      Hashtbl.replace
        (if variant = Traced then traced_sigs else plain_sigs)
        cfg.label got
    | exception (Gate.Self_test_failed _ as e) -> raise e
    | exception e ->
      incr attempted;
      incr failed;
      Printf.eprintf "FAILED %s: %s\n%!" cfg.label (Printexc.to_string e)
  in
  (* One untimed warm-up request lets the heap grow and lazy set-up
     finish. Every configuration then runs at least once; after that
     the run stops at the first request group past the deadline. *)
  one ~timed:false (List.hd cfgs) Plain;
  let t0 = now_ns () and cal0 = !Calibrate.spent_ns in
  let deadline = t0 + (seconds * 1_000_000_000) in
  let round = ref 0 in
  (try
     while true do
       List.iter
         (fun cfg ->
           if !round > 0 && now_ns () >= deadline then raise Exit;
           let vs = if !round mod 2 = 0 then variants else List.rev variants in
           List.iter (one ~timed:true cfg) vs)
         (shuffle rng cfgs);
       incr round
     done
   with Exit -> ());
  check_traced_reproduces ~traced:traced_sigs ~plain:plain_sigs;
  s_of_ns (now_ns () - t0 - (!Calibrate.spent_ns - cal0))

(* Serial, untimed replay of every suite job through [Plan.run_plan] with
   one lent, warm chunk pool, for the exact per-run allocation counts the
   sweep's worker domains cannot report. Returns (run_plan words, events,
   compile words). *)
let suite_replay ~refs ~seed cfgs =
  let pool = Pool.create () in
  let pass () =
    List.fold_left
      (fun (w, e, cw) (cfg : config) ->
        let inst = cfg.build ~seed in
        let c0 = Gc.minor_words () in
        let plan = Pipeline.compile ~machine:cfg.machine inst.App.graph in
        let c1 = Gc.minor_words () in
        let r = Plan.run_plan ~chunk_pool:pool ~policy:cfg.policy plan () in
        let c2 = Gc.minor_words () in
        ignore (gate ~refs cfg inst plan r ~golden_ok:(verify inst r) : Gate.signature);
        (w +. (c2 -. c1), e + r.Sim.events_processed, cw +. (c1 -. c0)))
      (0., 0, 0.) cfgs
  in
  ignore (pass ());
  pass ()

(* The suite: sweeps of all 22 jobs through [Sweep.simulate_jobs] on two
   worker domains, in a seeded job order per sweep. A job is a request. *)
let run_suite ~refs ~seed ~seconds ~traced cfgs =
  let rng = Random.State.make [| seed |] in
  let n_jobs = List.length cfgs in
  let next_id = ref 0 in
  let traced_sigs = Hashtbl.create 32 and plain_sigs = Hashtbl.create 32 in
  Sweep.with_pool ~domains:2 (fun pool ->
      let sweep ~timed variant =
        Gc.full_major ();
        let cal_before = Calibrate.measure () in
        let traced = variant = Traced in
        let order = Array.of_list (shuffle rng cfgs) in
        let insts = Array.make n_jobs None in
        let builds = Array.make n_jobs (0, 0) in
        let jobs =
          Array.to_list
            (Array.mapi
               (fun i (cfg : config) ->
                 {
                   Sweep.label = cfg.label;
                   machine = cfg.machine;
                   policy = cfg.policy;
                   build =
                     (fun () ->
                       let t0 = now_ns () in
                       if traced then Layers.begin_request ();
                       let inst = cfg.build ~seed in
                       let inst =
                         if traced then Layers.instrument inst else inst
                       in
                       insts.(i) <- Some inst;
                       builds.(i) <- (t0, now_ns ());
                       inst.App.graph);
                 })
               order)
        in
        let before = Sweep.report pool in
        let gc0 = gc_counts () in
        if traced then ignore (Layers.drain_gc () : float);
        match Sweep.simulate_jobs pool jobs with
        | exception e ->
          attempted := !attempted + n_jobs;
          failed := !failed + n_jobs;
          Printf.eprintf "FAILED suite sweep: %s\n%!" (Printexc.to_string e)
        | outcomes ->
          let scale = Calibrate.scale [ cal_before; Calibrate.measure () ] in
          if traced then begin
            let gc1 = gc_counts () in
            add layer "gc.pause_s" (Layers.drain_gc ());
            add layer "gc.minor_collections" (float_of_int (fst gc1 - fst gc0));
            add layer "gc.major_collections" (float_of_int (snd gc1 - snd gc0));
            let ts = now_ns () in
            incr next_id;
            record_kernel_layer ~request:!next_id ts;
            let busy =
              List.map2
                (fun (a : Sweep.domain_report) (b : Sweep.domain_report) ->
                  add sweep_layer "sweep.steals"
                    (float_of_int (b.Sweep.d_steals - a.Sweep.d_steals));
                  b.Sweep.d_wall_s -. a.Sweep.d_wall_s)
                before (Sweep.report pool)
            in
            List.iteri
              (fun i b ->
                add sweep_layer (Printf.sprintf "sweep.domain.%d.busy_s" i) b)
              busy;
            let mean = List.fold_left ( +. ) 0. busy /. float_of_int (List.length busy) in
            add sweep_layer "sweep.imbalance"
              (if mean > 0. then List.fold_left max 0. busy /. mean else 0.);
            incr traced_sweeps
          end;
          List.iteri
            (fun i (o : Sweep.outcome) ->
              let cfg = order.(i) in
              let inst = Option.get insts.(i) in
              let b0, b1 = builds.(i) in
              let build_s = s_of_ns (b1 - b0) in
              let passes =
                List.map
                  (fun (t : Pass.timing) -> (t.Pass.pass, t.Pass.wall_s))
                  o.Sweep.o_plan.Plan.timings
              in
              let compile_s = List.fold_left (fun a (_, s) -> a +. s) 0. passes in
              let t4 = now_ns () in
              let r = o.Sweep.o_result in
              let golden_ok = verify inst r in
              let t5 = now_ns () in
              let s =
                {
                  label = cfg.label;
                  variant;
                  build_s;
                  compile_s;
                  observe_s = 0.;
                  sim_s = Float.max 0. (o.Sweep.o_wall_s -. build_s -. compile_s);
                  verify_s = s_of_ns (t5 - t4);
                  events = r.Sim.events_processed;
                  alloc_words = Float.nan;
                  scale_setup = scale;
                  scale_sim = scale;
                  scale;
                }
              in
              let got = gate ~refs cfg inst o.Sweep.o_plan r ~golden_ok in
              if timed then samples := s :: !samples;
              Hashtbl.replace
                (if traced then traced_sigs else plain_sigs)
                cfg.label got;
              if traced then begin
                incr traced_requests;
                let plan = o.Sweep.o_plan in
                record_counts plan r;
                record_pass_layer plan ~build_s passes;
                add layer "compiler.setup_s" (setup_s s);
                add layer "sim.run_plan_s" s.sim_s;
                add layer "apps.verify_s" s.verify_s;
                (* Spans of a job: the job ran on a worker, so its compile
                   passes are laid out from the plan's own timings after
                   the build, and the simulation fills the rest of the
                   job's wall time. *)
                incr next_id;
                let request = !next_id and tid = o.Sweep.o_domain + 1 in
                let ns s = int_of_float (s *. 1e9) in
                let job_end = b0 + ns o.Sweep.o_wall_s in
                let root = Layers.span ~request ~tid "request" b0 job_end in
                let child name a b = Layers.span ~parent:root ~request ~tid name a b in
                ignore (child "build" b0 b1 : int);
                let c1 = b1 + ns compile_s in
                let compile = child "compile" b1 c1 in
                ignore
                  (List.fold_left
                     (fun prev (p, s) ->
                       let next = prev + ns s in
                       ignore
                         (Layers.span ~parent:compile ~request ~tid ("pass." ^ p)
                            prev next
                           : int);
                       next)
                     b1 passes
                    : int);
                ignore (child "simulate" c1 job_end : int);
                ignore
                  (Layers.span ~parent:root ~request ~tid:0 "verify" t4 t5 : int)
              end)
            outcomes
      in
      sweep ~timed:false Plain;
      let variants = if traced then [ Traced; Plain ] else [ Plain ] in
      let t0 = now_ns () and cal0 = !Calibrate.spent_ns in
      let deadline = t0 + (seconds * 1_000_000_000) in
      let round = ref 0 in
      while !round = 0 || now_ns () < deadline do
        let vs = if !round mod 2 = 0 then variants else List.rev variants in
        List.iter (sweep ~timed:true) vs;
        incr round
      done;
      check_traced_reproduces ~traced:traced_sigs ~plain:plain_sigs;
      s_of_ns (now_ns () - t0 - (!Calibrate.spent_ns - cal0)))

(* {1 Statistics and output} *)

let quantile q l =
  match List.sort compare l with
  | [] -> Float.nan
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | exception End_of_file -> Float.nan
    | line ->
      if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.)
      else find ()
  in
  let v = find () in
  close_in ic;
  v

let sum f l = List.fold_left (fun a x -> a +. f x) 0. l

type metric = { name : string; unit_ : string; value : float; n : int }

let end_to_end ~wall ~replay_alloc =
  let plain = List.filter (fun s -> s.variant = Plain) !samples in
  let n = List.length plain in
  let events = sum (fun s -> float_of_int s.events) plain in
  (* Per configuration, then averaged, so that the request mix a run
     happens to end on does not move it. *)
  let alloc =
    match replay_alloc with
    | Some (words, ev) -> words /. float_of_int ev
    | None ->
      let labels = List.sort_uniq compare (List.map (fun s -> s.label) plain) in
      List.fold_left
        (fun a l ->
          let mine = List.filter (fun s -> s.label = l) plain in
          a +. (sum (fun s -> s.alloc_words) mine
                /. sum (fun s -> float_of_int s.events) mine))
        0. labels
      /. float_of_int (List.length labels)
  in
  (* Times are scaled to the nominal host speed (see calibrate.ml). *)
  let wall = wall *. median (List.map (fun s -> s.scale) plain) in
  [
    { name = "setup_s"; unit_ = "s"; value = median (List.map scaled_setup_s plain); n };
    { name = "sim_s"; unit_ = "s"; value = median (List.map scaled_sim_s plain); n };
    { name = "verdict_s_p50"; unit_ = "s"; value = median (List.map scaled_total_s plain); n };
    { name = "requests_per_s"; unit_ = "1/s"; value = float_of_int n /. wall; n };
    { name = "events_per_s"; unit_ = "events/s"; value = events /. sum scaled_sim_s plain; n };
    { name = "alloc_words_per_event"; unit_ = "words"; value = alloc; n };
    { name = "peak_rss_mb"; unit_ = "MiB"; value = peak_rss_mb (); n = 1 };
  ]

let pass_names =
  [
    "validate"; "analyze-pre"; "align"; "buffering"; "parallelize";
    "analyze-post"; "schedulability"; "map"; "place"; "schedule";
  ]

let per_layer ~observe =
  let by v = List.filter (fun s -> s.variant = v) !samples in
  let traced = by Traced and plain = by Plain in
  let n = !traced_requests in
  let m name unit_ value = { name; unit_; value; n } in
  let mean k = layer_mean k in
  let ratio a b = if b = 0. then 0. else a /. b in
  let sweep name unit_ =
    let total = Option.value ~default:0. (Hashtbl.find_opt sweep_layer name) in
    let n = !traced_sweeps in
    { name; unit_; value = total /. float_of_int (max 1 n); n }
  in
  let passes =
    List.map
      (fun p ->
        let k = "compiler.pass." ^ p ^ ".s" in
        m k "s" (mean k))
      pass_names
  in
  let accounted =
    mean "compiler.build_s"
    +. List.fold_left (fun a p -> a +. p.value) 0. passes
  in
  let run_plan = mean "sim.run_plan_s" and kernels = mean "kernels.self_s" in
  let events = mean "sim.events" in
  let hits = mean "image.pool.hits" and misses = mean "image.pool.misses" in
  [ m "compiler.build_s" "s" (mean "compiler.build_s") ]
  @ passes
  @ [
      m "compiler.setup_s" "s" (mean "compiler.setup_s");
      m "compiler.setup_accounted_share" "ratio" (ratio accounted (mean "compiler.setup_s"));
      m "compiler.timings_gap_s" "s" (mean "compiler.timings_gap_s");
      m "compiler.nodes" "count" (mean "compiler.nodes");
      m "compiler.channels" "count" (mean "compiler.channels");
      m "compiler.schedule.recorded_firings" "count" (mean "compiler.schedule.recorded_firings");
      m "compiler.alloc_words" "words" (mean "compiler.alloc_words");
      m "kernels.self_s" "s" kernels;
      m "kernels.schedule_self_s" "s" (mean "kernels.schedule_self_s");
      m "kernels.attempts" "count" (mean "kernels.attempts");
      m "kernels.fires" "count" (mean "kernels.fires");
      m "kernels.fire_ratio" "ratio" (ratio (mean "kernels.fires") (mean "kernels.attempts"));
      m "kernels.starved_calls" "count" (mean "kernels.starved_calls");
      m "sim.run_plan_s" "s" run_plan;
      m "sim.self_s" "s" (run_plan -. kernels);
      m "sim.self_ns_per_event" "ns" (ratio ((run_plan -. kernels) *. 1e9) events);
      m "sim.events" "count" events;
      m "sim.dispatched_events" "count" (events -. mean "sim.elided");
      m "sim.elided_share" "ratio" (ratio (mean "sim.elided") events);
      m "sim.static_coverage" "ratio" (ratio (mean "sim.static_fired") (mean "sim.fires"));
      m "sim.indexed_share" "ratio" (ratio (mean "sim.indexed_fired") (mean "sim.static_fired"));
      m "sim.fallback_events" "count" (mean "sim.fallback_events");
      m "sim.pes" "count" (mean "sim.pes");
      m "image.pool.hits" "count" hits;
      m "image.pool.misses" "count" misses;
      m "image.pool.hit_rate" "ratio" (ratio hits (hits +. misses));
      m "image.pool.live" "count" (mean "image.pool.live");
      m "gc.minor_collections" "count" (mean "gc.minor_collections");
      m "gc.major_collections" "count" (mean "gc.major_collections");
      m "gc.pause_s" "s" (mean "gc.pause_s");
      sweep "sweep.domain.0.busy_s" "s";
      sweep "sweep.domain.1.busy_s" "s";
      sweep "sweep.steals" "count";
      sweep "sweep.imbalance" "ratio";
      m "obs.callbacks" "count" (mean "obs.callbacks");
      m "obs.overhead_s" "s"
        (if observe then
           median (List.map (fun s -> s.sim_s) plain)
           -. median (List.map (fun s -> s.sim_s) (by Unobserved))
         else 0.);
      m "apps.verify_s" "s" (mean "apps.verify_s");
      m "trace_overhead" "ratio"
        (ratio (median (List.map total_s traced)) (median (List.map total_s plain)));
    ]

(* The result line carries every digit; [Obs_json] rounds to 12. *)
let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* {1 Entry points} *)

let write_results ~path ~provenance metrics =
  let open Obs_json in
  write_file ~path
    (Obj
       [
         ("provenance", Obj provenance);
         ("attempted", Int !attempted);
         ("failed", Int !failed);
         ( "metrics",
           Obj
             (List.map
                (fun mt ->
                  ( mt.name,
                    Obj
                      [
                        ("value", float mt.value);
                        ("unit", Str mt.unit_);
                        ("samples", Int mt.n);
                      ] ))
                metrics) );
       ])

let run ~workload ~seed ~seconds ~traced ~reference ~out =
  let wl = workload_of_string workload in
  Gate.check_exact_allocation ();
  let refs = Gate.read_reference reference in
  let cfgs = configs wl in
  if traced then Layers.start_gc_ring ();
  let t_start = now_ns () in
  let replay =
    match wl with Suite -> Some (suite_replay ~refs ~seed cfgs) | _ -> None
  in
  let wall =
    match wl with
    | Suite -> run_suite ~refs ~seed ~seconds ~traced cfgs
    | Stream | Large | Observed ->
      run_single ~refs ~seed ~seconds ~traced ~observe:(wl = Observed) cfgs
  in
  Layers.stop_gc_ring ();
  (match replay with
   | Some (_, _, cw) when traced ->
     (* Compile allocation of the suite comes from the serial replay. *)
     Hashtbl.replace layer "compiler.alloc_words"
       (cw /. float_of_int (List.length cfgs) *. float_of_int !traced_requests)
   | _ -> ());
  let metrics =
    if traced then per_layer ~observe:(wl = Observed)
    else
      end_to_end ~wall
        ~replay_alloc:(Option.map (fun (w, e, _) -> (w, e)) replay)
  in
  let run_wall = s_of_ns (now_ns () - t_start) in
  let plain_totals =
    List.filter_map
      (fun s -> if s.variant = Plain then Some (scaled_total_s s) else None)
      !samples
  in
  let n_plain = List.length plain_totals in
  let tag = Printf.sprintf "%s-seed%d-trace%d" workload seed (Bool.to_int traced) in
  let env k = Option.value ~default:"unknown" (Sys.getenv_opt k) in
  let provenance =
    Obs_json.
      [
        ("workload", Str workload);
        ("seed", Int seed);
        ("trace", Bool traced);
        ("commit", Str (env "BENCH_COMMIT"));
        ("source_digest", Str (env "BENCH_SOURCE_DIGEST"));
        ("nproc", Int (Domain.recommended_domain_count ()));
        ("ocaml", Str Sys.ocaml_version);
        ("run_wall_s", float run_wall);
        ("measured_s", float wall);
        ("requests", Int n_plain);
        ("traced_requests", Int !traced_requests);
        ("failed_ratio", float (float_of_int !failed /. float_of_int (max 1 !attempted)));
      ]
  in
  write_results ~path:(Filename.concat out ("result-" ^ tag ^ ".json")) ~provenance metrics;
  if traced then Layers.write_chrome_trace (Filename.concat out ("trace-" ^ tag ^ ".json"));
  (* Human-readable report, then the one-line result. *)
  Printf.printf "provenance: %s\n" (Obs_json.to_string (Obs_json.Obj provenance));
  List.iter
    (fun mt -> Printf.printf "  %-36s %18.6g %-9s (samples %d)\n" mt.name mt.value mt.unit_ mt.n)
    metrics;
  Printf.printf "  failed_ratio %d/%d\n" !failed !attempted;
  if not traced then begin
    let plain = List.filter (fun s -> s.variant = Plain) !samples in
    let scales = List.map (fun s -> s.scale) plain in
    Printf.printf
      "  host speed factor (times above are raw x factor): median %.4g, \
       range %.4g..%.4g\n"
      (median scales) (List.fold_left min infinity scales)
      (List.fold_left max 0. scales);
    Printf.printf "  raw wall time: setup_s %.6g  sim_s %.6g  verdict_s_p50 %.6g s\n"
      (median (List.map setup_s plain))
      (median (List.map (fun s -> s.sim_s) plain))
      (median (List.map total_s plain))
  end;
  (* A percentile is quoted only with at least ten samples beyond it. *)
  if (not traced) && n_plain >= 100 then
    Printf.printf "  verdict_s_p90 %.6g s (samples %d)\n" (quantile 0.9 plain_totals) n_plain
  else if not traced then
    Printf.printf "  verdict_s_p90 not reported: %d samples, 100 needed\n" n_plain;
  if traced then begin
    let passes =
      List.fold_left
        (fun a p -> a +. layer_mean ("compiler.pass." ^ p ^ ".s"))
        0. pass_names
    and kernels = layer_mean "kernels.self_s"
    and run_plan = layer_mean "sim.run_plan_s" in
    Printf.printf "  check: build + passes = %.6g s of setup %.6g s\n"
      (layer_mean "compiler.build_s" +. passes)
      (layer_mean "compiler.setup_s");
    Printf.printf
      "  check: kernels.self_s + sim.self_s = %.6g s = run_plan %.6g s\n"
      (kernels +. (run_plan -. kernels))
      run_plan;
    Printf.printf
      "  note: compiler-inserted kernels (buffers, splits, joins, insets, \
       pads) are not wrapped; their time is in sim.self_s\n";
    if Layers.gc_events_lost () > 0 then
      Printf.printf "  note: the GC event rings lost %d words of events\n" (Layers.gc_events_lost ())
  end;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) !attempted !failed
    (String.concat ", "
       (List.map
          (fun mt ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.name
              (json_number mt.value) mt.unit_)
          metrics))

let reference ~workload ~seed ~out =
  let wl = workload_of_string workload in
  let entries =
    List.map
      (fun (cfg : config) ->
        ( cfg.label,
          Gate.reference_signature
            ~build:(fun () -> cfg.build ~seed)
            ~machine:cfg.machine ~policy:cfg.policy ))
      (configs wl)
  in
  Gate.write_reference out entries

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 in
  let trace = ref 0 and reference_file = ref "" and out = ref "." in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "stream|large|suite|observed");
      ("--seed", Arg.Set_int seed, "input and request-order seed");
      ("--seconds", Arg.Set_int seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer");
      ("--reference", Arg.Set_string reference_file, "reference results file");
      ("--out", Arg.Set_string out, "directory (run) or file (reference)");
    ]
  in
  let mode = ref "" in
  Arg.parse spec (fun m -> mode := m) "bpbench.exe run|reference [options]";
  match !mode with
  | "run" ->
    run ~workload:!workload ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1)
      ~reference:!reference_file ~out:!out
  | "reference" -> reference ~workload:!workload ~seed:!seed ~out:!out
  | _ ->
    prerr_endline "usage: bpbench.exe run|reference [options]";
    exit 2
