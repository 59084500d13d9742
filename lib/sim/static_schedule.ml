open Bp_util
module Graph = Bp_graph.Graph
module Spec = Bp_kernel.Spec
module Item = Bp_kernel.Item
module Behaviour = Bp_kernel.Behaviour
module Token = Bp_token.Token
module Image = Bp_image.Image

(* A quasi-static schedule: per-kernel periodic firing tables recovered by
   an untimed functional execution of the mapped graph (the "recorder"),
   plus the partition of the graph into static regions.

   The tables are an artifact: the timed engine's correctness NEVER
   depends on them. What makes the quasi-static executor exact is the
   kernels' [starved] decline oracles ({!Bp_kernel.Behaviour.t}); the
   tables only (a) document the steady-state firing pattern, (b) let the
   engine report how much of a run matched the predicted pattern
   (coverage), and (c) drive the [--dump-after schedule] artifact. A
   kernel whose runtime firing order diverges from its table desyncs and
   is simply counted, not mis-simulated.

   Determinism: a kernel's per-node firing sequence is a function of its
   input item sequence alone (dataflow/Kahn determinism — declined
   attempts mutate nothing), so the untimed recorder observes the same
   per-node sequences as any timed execution, regardless of interleaving.
   This is what makes runtime coverage high rather than coincidental. *)

type item_kind = K_data | K_eol | K_eof | K_user

let kind_of_item = function
  | Item.Data _ -> K_data
  | Item.Ctl tok -> (
    match tok.Token.kind with
    | Token.End_of_line -> K_eol
    | Token.End_of_frame -> K_eof
    | Token.User _ -> K_user)

let kind_name = function
  | K_data -> "data"
  | K_eol -> "eol"
  | K_eof -> "eof"
  | K_user -> "user"

type entry = {
  e_method : string;
  e_pops : (int * item_kind) array;  (* channel id, item kind, pop order *)
  e_pushes : (int * item_kind) array;
  (* Filled by [resolve] after recording; the recorder leaves the
     defaults ([||], [||], 1). *)
  e_pop_slots : int array;  (* input port ordinal of each pop *)
  e_push_slots : int array;  (* output port ordinal of each push *)
  e_run : int;  (* length of the identical-firing run starting here *)
  e_shape : int;  (* index of this entry's distinct shape in its table *)
}

type node_table = {
  t_node : Graph.node_id;
  t_prelude : entry array;  (* firings of the first recorded frame *)
  t_period : entry array;  (* firings of the second frame: the cycle *)
  t_verified : bool;  (* a third frame repeated the period exactly *)
  t_user_tokens : bool;  (* the node popped or pushed a User token *)
}

type region = {
  r_id : int;
  r_nodes : Graph.node_id list;  (* ascending *)
  r_static : bool;
}

type t = {
  tables : (Graph.node_id * node_table) list;  (* ascending node id *)
  regions : region list;  (* ascending region id *)
  by_proc : (int * Graph.node_id list) list;  (* static nodes per PE *)
  recorded_firings : int;
  truncated : bool;  (* recorder hit its firing cap; tables are empty *)
}

let empty = {
  tables = []; regions = []; by_proc = []; recorded_firings = 0;
  truncated = false;
}

(* ---- recorder -------------------------------------------------------- *)

(* Untimed functional execution with the real behaviours over bounded
   queues. Sinks are NOT instantiated — a sink's [make_behaviour] resets
   the application's shared collector, which must keep belonging to the
   timed run — their channels are drained raw instead. *)

type rec_chan = {
  rc_id : int;
  rc_cap : int;
  rc_q : Item.t Queue.t;
  rc_producer : int;  (* stepper index of the pushing node, or -1 *)
  rc_consumer : int;  (* stepper index of the popping node; -1 for sinks *)
}

let entry_equal a b =
  String.equal a.e_method b.e_method
  && a.e_pops = b.e_pops && a.e_pushes = b.e_pushes

let segment_at_eof entries =
  (* Split the firing sequence after each firing that consumed an
     end-of-frame token; the trailing partial segment (if any) is
     dropped. *)
  let segs = ref [] and cur = ref [] in
  List.iter
    (fun e ->
      cur := e :: !cur;
      if Array.exists (fun (_, k) -> k = K_eof) e.e_pops then begin
        segs := Array.of_list (List.rev !cur) :: !segs;
        cur := []
      end)
    entries;
  List.rev !segs

let record ?(max_firings = 5_000_000) g =
  let nodes =
    List.sort (fun (a : Graph.node) b -> compare a.Graph.id b.Graph.id)
      (Graph.nodes g)
  in
  (* Every node but the sinks gets a stepper, in ascending node id. *)
  let stepper_index = Hashtbl.create 64 in
  List.iter
    (fun (n : Graph.node) ->
      if n.Graph.spec.Spec.role <> Spec.Sink then
        Hashtbl.replace stepper_index n.Graph.id
          (Hashtbl.length stepper_index))
    nodes;
  let index_of id =
    Option.value ~default:(-1) (Hashtbl.find_opt stepper_index id)
  in
  let chans = Hashtbl.create 64 in
  List.iter
    (fun (c : Graph.channel) ->
      Hashtbl.replace chans c.Graph.chan_id
        { rc_id = c.Graph.chan_id; rc_cap = c.Graph.capacity;
          rc_q = Queue.create ();
          rc_producer = index_of c.Graph.src.Graph.node;
          rc_consumer = index_of c.Graph.dst.Graph.node })
    (Graph.channels g);
  let chan id = Hashtbl.find chans id in
  (* Steppers whose adjacent channels changed since their last turn
     ended; a turn ends with a declined attempt, which mutates nothing,
     so an unmarked stepper would decline again. All start marked. *)
  let marked = Array.make (Hashtbl.length stepper_index) true in
  let mark i = if i >= 0 then marked.(i) <- true in
  let total = ref 0 and truncated = ref false in
  let firings : (Graph.node_id, entry list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  (* Per-node untimed stepper: behaviour + recording ports. *)
  let steppers =
    List.filter_map
      (fun (n : Graph.node) ->
        if n.Graph.spec.Spec.role = Spec.Sink then None
        else begin
          (* Channels by port ordinal, bound once. *)
          let bound = Graph.in_channels g n.Graph.id in
          let ins =
            Array.of_list
              (List.map
                 (fun port ->
                   match
                     List.find_opt
                       (fun (c : Graph.channel) ->
                         String.equal c.Graph.dst.Graph.port port)
                       bound
                   with
                   | Some c -> chan c.Graph.chan_id
                   | None ->
                     Err.graphf "schedule recorder: %s: no input channel %S"
                       n.Graph.name port)
                 (Spec.input_order n.Graph.spec))
          in
          let outs =
            Array.of_list
              (List.map
                 (fun port ->
                   List.map
                     (fun (c : Graph.channel) -> chan c.Graph.chan_id)
                     (Graph.out_channels g n.Graph.id ~port ()))
                 (Spec.output_order n.Graph.spec))
          in
          let pops = ref [] and pushes = ref [] in
          let ports =
            {
              Behaviour.ix_peek = (fun s -> Queue.peek ins.(s).rc_q);
              ix_pop =
                (fun s ->
                  let c = ins.(s) in
                  if Queue.is_empty c.rc_q then
                    Err.graphf "schedule recorder: %s: pop from empty input %S"
                      n.Graph.name
                      (List.nth (Spec.input_order n.Graph.spec) s);
                  let item = Queue.pop c.rc_q in
                  pops := (c.rc_id, kind_of_item item) :: !pops;
                  mark c.rc_producer;
                  item);
              ix_push =
                (fun s item ->
                  List.iter
                    (fun c ->
                      if Queue.length c.rc_q >= c.rc_cap then
                        Err.graphf
                          "schedule recorder: %s: push past capacity on %S"
                          n.Graph.name
                          (List.nth (Spec.output_order n.Graph.spec) s);
                      Queue.push item c.rc_q;
                      pushes := (c.rc_id, kind_of_item item) :: !pushes;
                      mark c.rc_consumer)
                    outs.(s));
              ix_space =
                (fun s ->
                  match outs.(s) with
                  | [] -> max_int
                  | cs ->
                    List.fold_left
                      (fun acc c -> min acc (c.rc_cap - Queue.length c.rc_q))
                      max_int cs);
              ix_has = (fun s -> not (Queue.is_empty ins.(s).rc_q));
              ix_acquire = Image.create;
              ix_release = (fun _ -> ());
            }
          in
          let behaviour = n.Graph.spec.Spec.make_behaviour () in
          let recorded = ref [] in
          Hashtbl.replace firings n.Graph.id recorded;
          let step () =
            pops := [];
            pushes := [];
            match behaviour.Behaviour.try_step ports with
            | None -> false
            | Some f ->
              incr total;
              recorded :=
                {
                  e_method = f.Behaviour.method_name;
                  e_pops = Array.of_list (List.rev !pops);
                  e_pushes = Array.of_list (List.rev !pushes);
                  e_pop_slots = [||];
                  e_push_slots = [||];
                  e_run = 1;
                  e_shape = 0;
                }
                :: !recorded;
              true
          in
          Some step
        end)
      nodes
  in
  (* Raw sink drains: consume everything queued on a sink's inputs. *)
  let sink_drains =
    List.filter_map
      (fun (n : Graph.node) ->
        if n.Graph.spec.Spec.role <> Spec.Sink then None
        else
          let ins =
            List.map
              (fun (c : Graph.channel) -> chan c.Graph.chan_id)
              (Graph.in_channels g n.Graph.id)
          in
          Some
            (fun () ->
              List.fold_left
                (fun acc c ->
                  let drained = Queue.length c.rc_q > 0 in
                  if drained then mark c.rc_producer;
                  Queue.clear c.rc_q;
                  acc || drained)
                false ins))
      nodes
  in
  (* Round-robin to quiescence: each sweep gives every marked node a
     fire-to-exhaustion turn (bounded queues keep any one turn finite),
     in ascending node id. The turn's final, declined attempt saw every
     change the turn made, so the mark is cleared when the turn ends. *)
  let progress = ref true in
  while !progress && not !truncated do
    progress := false;
    List.iteri
      (fun i step ->
        if marked.(i) then begin
          while (not !truncated) && step () do
            progress := true;
            if !total > max_firings then truncated := true
          done;
          marked.(i) <- false
        end)
      steppers;
    List.iter (fun drain -> if drain () then progress := true) sink_drains
  done;
  if !truncated then { empty with truncated = true; recorded_firings = !total }
  else begin
    let tables =
      List.filter_map
        (fun (n : Graph.node) ->
          match Hashtbl.find_opt firings n.Graph.id with
          | None -> None
          | Some { contents = [] } -> None
          | Some recorded ->
            let entries = List.rev !recorded in
            let user =
              List.exists
                (fun e ->
                  Array.exists (fun (_, k) -> k = K_user) e.e_pops
                  || Array.exists (fun (_, k) -> k = K_user) e.e_pushes)
                entries
            in
            let prelude, period, verified =
              match segment_at_eof entries with
              | s1 :: s2 :: rest ->
                let verified =
                  match rest with
                  | s3 :: _ ->
                    Array.length s2 = Array.length s3
                    && Array.for_all2 entry_equal s2 s3
                  | [] -> false
                in
                (s1, s2, verified)
              | [ s1 ] -> (s1, [||], false)
              | [] -> (Array.of_list entries, [||], false)
            in
            Some
              ( n.Graph.id,
                {
                  t_node = n.Graph.id;
                  t_prelude = prelude;
                  t_period = period;
                  t_verified = verified;
                  t_user_tokens = user;
                } ))
        nodes
    in
    { empty with tables; recorded_firings = !total }
  end

(* ---- region partition ------------------------------------------------ *)

(* A kernel with two or more data methods is a reactive merge: which
   method fires first depends on the arrival order of independent input
   streams, which the untimed recorder cannot predict (the histogram's
   [configureBins]/[count] pair is the suite's example). Such nodes keep
   their tables for inspection but are never statically scheduled. *)
let multi_data_methods (n : Graph.node) =
  let data (m : Bp_kernel.Method_spec.t) =
    match m.Bp_kernel.Method_spec.trigger with
    | Bp_kernel.Method_spec.On_data _ -> true
    | Bp_kernel.Method_spec.On_token _ -> false
  in
  List.length (List.filter data n.Graph.spec.Spec.methods) > 1

let node_static (n : Graph.node) tbl =
  (match n.Graph.spec.Spec.role with
  | Spec.Source | Spec.Const_source | Spec.Sink -> false
  | _ -> true)
  && Array.length tbl.t_period > 0
  && (not tbl.t_user_tokens)
  && not (multi_data_methods n)

let partition g sched =
  let nodes =
    List.sort (fun (a : Graph.node) b -> compare a.Graph.id b.Graph.id)
      (Graph.nodes g)
  in
  let static_ids = Hashtbl.create 16 in
  List.iter
    (fun (n : Graph.node) ->
      match List.assoc_opt n.Graph.id sched.tables with
      | Some tbl when node_static n tbl ->
        Hashtbl.replace static_ids n.Graph.id ()
      | _ -> ())
    nodes;
  (* Union-find over static nodes; edges are channels between them. *)
  let parent = Hashtbl.create 16 in
  let rec find i =
    match Hashtbl.find_opt parent i with
    | Some p when p <> i ->
      let r = find p in
      Hashtbl.replace parent i r;
      r
    | _ -> i
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then Hashtbl.replace parent (max ra rb) (min ra rb)
  in
  Hashtbl.iter (fun id () -> Hashtbl.replace parent id id) static_ids;
  List.iter
    (fun (c : Graph.channel) ->
      let s = c.Graph.src.Graph.node and d = c.Graph.dst.Graph.node in
      if Hashtbl.mem static_ids s && Hashtbl.mem static_ids d then union s d)
    (Graph.channels g);
  (* Deterministic region numbering: ascending by least member id, static
     components first, then singleton dynamic regions. *)
  let comps = Hashtbl.create 8 in
  Hashtbl.iter
    (fun id () ->
      let root = find id in
      let members =
        match Hashtbl.find_opt comps root with Some l -> l | None -> []
      in
      Hashtbl.replace comps root (id :: members))
    static_ids;
  let static_regions =
    Hashtbl.fold (fun _root members acc -> List.sort compare members :: acc)
      comps []
    |> List.sort compare
  in
  let dynamic_regions =
    List.filter_map
      (fun (n : Graph.node) ->
        if Hashtbl.mem static_ids n.Graph.id then None
        else Some [ n.Graph.id ])
      nodes
  in
  List.mapi
    (fun i (static, members) ->
      { r_id = i; r_nodes = members; r_static = static })
    (List.map (fun m -> (true, m)) static_regions
    @ List.map (fun m -> (false, m)) dynamic_regions)

(* ---- slot resolution ------------------------------------------------- *)

(* Rewrite each table entry's channel references as kernel port ordinals —
   the slot indices of {!Bp_kernel.Behaviour.indexed} — and annotate it
   with the length of the maximal run of identical firings starting at
   it, so the timed engine dispatches without any name lookup and can arm
   a whole run from one guard validation. Runs never cross the prelude/
   period boundary (each segment is swept independently, no wrap). *)
let resolve g sched =
  let port_of_chan = Hashtbl.create 64 in
  List.iter
    (fun (c : Graph.channel) ->
      Hashtbl.replace port_of_chan c.Graph.chan_id
        (c.Graph.src.Graph.port, c.Graph.dst.Graph.port))
    (Graph.channels g);
  let resolve_node (id, tbl) =
    let spec = (Graph.node g id).Graph.spec in
    let pop_slot (cid, _) =
      Spec.input_ordinal spec (snd (Hashtbl.find port_of_chan cid))
    in
    let push_slot (cid, _) =
      Spec.output_ordinal spec (fst (Hashtbl.find port_of_chan cid))
    in
    (* Shape numbering, shared by prelude and period: entries with the
       same (method, pops, pushes) footprint get the same index, assigned
       in first-occurrence order (prelude first), so the table carries at
       most a handful of shapes and the engine can compile each once per
       run instead of once per entry. *)
    let shapes = ref [] and nshapes = ref 0 in
    let shape_of e =
      let rec find i = function
        | [] ->
          shapes := e :: !shapes;
          incr nshapes;
          !nshapes - 1
        | e' :: rest -> if entry_equal e' e then i else find (i - 1) rest
      in
      find (!nshapes - 1) !shapes
    in
    let resolve_seg entries =
      let n = Array.length entries in
      let out =
        Array.map
          (fun e ->
            {
              e with
              e_pop_slots = Array.map pop_slot e.e_pops;
              e_push_slots = Array.map push_slot e.e_pushes;
              e_shape = shape_of e;
            })
          entries
      in
      (* Backward sweep over the raw entries: [e_run] counts consecutive
         firings with the same method and channel/kind footprint. *)
      for i = n - 2 downto 0 do
        if entry_equal entries.(i) entries.(i + 1) then
          out.(i) <- { (out.(i)) with e_run = out.(i + 1).e_run + 1 }
      done;
      out
    in
    let prelude = resolve_seg tbl.t_prelude in
    let period = resolve_seg tbl.t_period in
    (id, { tbl with t_prelude = prelude; t_period = period })
  in
  { sched with tables = List.map resolve_node sched.tables }

(* ---- construction ---------------------------------------------------- *)

let build ?max_firings ~graph ~mapping () =
  let sched = record ?max_firings graph in
  if sched.truncated then sched
  else begin
    let sched = resolve graph sched in
    let regions = partition graph sched in
    let static_ids = Hashtbl.create 16 in
    List.iter
      (fun r ->
        if r.r_static then
          List.iter (fun id -> Hashtbl.replace static_ids id ()) r.r_nodes)
      regions;
    let by_proc =
      List.filter_map
        (fun p ->
          let on_p =
            List.filter (Hashtbl.mem static_ids)
              (List.sort compare (Mapping.nodes_on mapping p))
          in
          if on_p = [] then None else Some (p, on_p))
        (List.init (Mapping.processors mapping) Fun.id)
    in
    { sched with regions; by_proc }
  end

(* ---- queries --------------------------------------------------------- *)

let table t id = List.assoc_opt id t.tables

let static_node_ids t =
  List.concat_map (fun r -> if r.r_static then r.r_nodes else []) t.regions

let static_regions t =
  List.length (List.filter (fun r -> r.r_static) t.regions)

let coverage_bound t g =
  (* Fraction of recorded firings that belong to static-region nodes — an
     upper bound on the runtime static coverage the executor can report. *)
  ignore g;
  if t.recorded_firings = 0 then 0.
  else begin
    let static_ids = Hashtbl.create 16 in
    List.iter (fun id -> Hashtbl.replace static_ids id ()) (static_node_ids t);
    let static_fires =
      List.fold_left
        (fun acc (id, tbl) ->
          if Hashtbl.mem static_ids id then
            acc
            + (Array.length tbl.t_prelude * 1)
            + Array.length tbl.t_period
          else acc)
        0 t.tables
    in
    float_of_int static_fires /. float_of_int t.recorded_firings
  end

(* ---- rendering ------------------------------------------------------- *)

let pp_entry ppf e =
  let pp_side slots ppf a =
    Array.iteri
      (fun i (cid, k) ->
        if i > 0 then Format.fprintf ppf ",";
        Format.fprintf ppf "c%d:%s" cid (kind_name k);
        if i < Array.length slots then Format.fprintf ppf "@@s%d" slots.(i))
      a
  in
  Format.fprintf ppf "%s[%a -> %a]" e.e_method
    (pp_side e.e_pop_slots) e.e_pops
    (pp_side e.e_push_slots) e.e_pushes;
  if e.e_run > 1 then Format.fprintf ppf "x%d" e.e_run

let pp g ppf t =
  if t.truncated then
    Format.fprintf ppf
      "schedule: recorder truncated after %d firings; no tables@,"
      t.recorded_firings
  else begin
    Format.fprintf ppf "schedule: %d regions (%d static), %d tables@,"
      (List.length t.regions) (static_regions t) (List.length t.tables);
    List.iter
      (fun r ->
        Format.fprintf ppf "  region %d (%s):%t@," r.r_id
          (if r.r_static then "static" else "dynamic")
          (fun ppf ->
            List.iter
              (fun id ->
                Format.fprintf ppf " %s" (Graph.node g id).Graph.name)
              r.r_nodes))
      t.regions;
    List.iter
      (fun p ->
        Format.fprintf ppf "  pe %d static kernels:%t@," (fst p)
          (fun ppf ->
            List.iter
              (fun id ->
                Format.fprintf ppf " %s" (Graph.node g id).Graph.name)
              (snd p)))
      t.by_proc;
    List.iter
      (fun (id, tbl) ->
        Format.fprintf ppf "  %s: prelude %d, period %d%s%s@,"
          (Graph.node g id).Graph.name
          (Array.length tbl.t_prelude)
          (Array.length tbl.t_period)
          (if tbl.t_verified then " (verified)" else "")
          (if tbl.t_user_tokens then " (user tokens)" else "");
        if Array.length tbl.t_period > 0 && Array.length tbl.t_period <= 8
        then begin
          Format.fprintf ppf "    period:";
          Array.iter
            (fun e -> Format.fprintf ppf " %a" pp_entry e)
            tbl.t_period;
          Format.fprintf ppf "@,"
        end)
      t.tables
  end
