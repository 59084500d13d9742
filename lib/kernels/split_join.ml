open Bp_kernel
open Bp_geometry
module Image = Bp_image.Image
module Token = Bp_token.Token
module Err = Bp_util.Err

let out_names ways = List.init ways (fun k -> Printf.sprintf "out%d" k)
let in_names ways = List.init ways (fun k -> Printf.sprintf "in%d" k)

(* A distributor replicates every control token to all [ways] outputs and
   resets its cursor on end-of-frame. *)
let broadcast ~ways reset =
  Behaviour.One
    {
      name = "broadcast";
      cycles = Costs.split;
      pops = [| (0, Behaviour.k_token) |];
      outs = Array.init ways Fun.id;
      need = 1;
      guard = Behaviour.always;
      fire =
        (fun p ->
          let tok = Item.token_exn (p.ix_pop 0) in
          for k = 0 to ways - 1 do
            p.ix_push k (Item.ctl tok)
          done;
          if tok.Token.kind = Token.End_of_frame then reset ());
    }

(* Count one chunk on branch [k]; after [pattern.(k)] of them the turn
   passes to the next branch. *)
let count_turn ~pattern ~ways branch count k =
  incr count;
  if !count >= pattern.(k) then begin
    count := 0;
    branch := (k + 1) mod ways
  end

let split ?class_name ?pattern ~window ~ways () =
  if ways < 2 then Err.invalidf "split needs at least 2 ways";
  let pattern = Option.value pattern ~default:(Array.make ways 1) in
  if Array.length pattern <> ways then
    Err.invalidf "split pattern length %d does not match %d ways"
      (Array.length pattern) ways;
  Array.iter
    (fun p ->
      if p <= 0 then Err.invalidf "split pattern entries must be positive")
    pattern;
  let class_name = Option.value class_name ~default:"Split" in
  let outs = out_names ways in
  let make_behaviour () =
    let branch = ref 0 and sent = ref 0 in
    let route k =
      {
        Behaviour.name = "route";
        cycles = Costs.split;
        pops = [| (0, Behaviour.k_data) |];
        outs = [| k |];
        need = 1;
        guard = Behaviour.always;
        fire =
          (fun p ->
            p.ix_push k (p.ix_pop 0);
            count_turn ~pattern ~ways branch sent k);
      }
    in
    Behaviour.of_rules
      [
        broadcast ~ways (fun () ->
            branch := 0;
            sent := 0);
        Turn (branch, Array.init ways route);
      ]
  in
  Spec.v ~role:Spec.Split ~class_name ~parallelization:Spec.Serial
    ~inputs:[ Port.input "in" window ]
    ~outputs:(List.map (fun o -> Port.output o window) outs)
    ~methods:[] ~make_behaviour ()

let join ?class_name ?pattern ~window ~ways () =
  if ways < 2 then Err.invalidf "join needs at least 2 ways";
  let pattern = Option.value pattern ~default:(Array.make ways 1) in
  if Array.length pattern <> ways then
    Err.invalidf "join pattern length %d does not match %d ways"
      (Array.length pattern) ways;
  Array.iter
    (fun p -> if p <= 0 then Err.invalidf "join pattern entries must be positive")
    pattern;
  let class_name = Option.value class_name ~default:"Join" in
  let ins = in_names ways in
  let make_behaviour () =
    let branch = ref 0 and taken = ref 0 in
    let collect k =
      {
        Behaviour.name = "collect";
        cycles = Costs.split;
        pops = [| (k, Behaviour.k_data) |];
        outs = [| 0 |];
        need = 1;
        guard = Behaviour.always;
        fire =
          (fun p ->
            p.ix_push 0 (p.ix_pop k);
            count_turn ~pattern ~ways branch taken k);
      }
    in
    (* Merge: once the current branch shows a token, consume its copy
       from every branch and emit it once. *)
    let merge =
      {
        Behaviour.name = "mergeToken";
        cycles = Costs.split;
        pops = Array.init ways (fun k -> (k, Behaviour.k_token));
        outs = [| 0 |];
        need = 1;
        guard = (fun p -> p.ix_has !branch && Item.is_ctl (p.ix_peek !branch));
        fire =
          (fun p ->
            let tok = Item.token_exn (p.ix_peek !branch) in
            for k = 0 to ways - 1 do
              ignore (p.ix_pop k)
            done;
            p.ix_push 0 (Item.ctl tok);
            if tok.Token.kind = Token.End_of_frame then begin
              branch := 0;
              taken := 0
            end);
      }
    in
    Behaviour.of_rules
      [ Turn (branch, Array.init ways collect); One merge ]
  in
  Spec.v ~role:Spec.Join ~class_name ~parallelization:Spec.Serial
    ~inputs:(List.map (fun i -> Port.input i window) ins)
    ~outputs:[ Port.output "out" window ]
    ~methods:[] ~make_behaviour ()

let column_split ?class_name ~ranges ~frame () =
  let parts = Array.length ranges in
  if parts < 2 then Err.invalidf "column split needs at least 2 stripes";
  let w = frame.Size.w in
  Array.iteri
    (fun k (c0, c1) ->
      if c0 < 0 || c1 > w || c0 >= c1 then
        Err.invalidf "column split: bad range [%d,%d) for width %d" c0 c1 w;
      if k = 0 && c0 <> 0 then
        Err.invalidf "column split: first range must start at column 0";
      if k = parts - 1 && c1 <> w then
        Err.invalidf "column split: last range must end at column %d" w;
      if k > 0 then begin
        let p0, p1 = ranges.(k - 1) in
        if c0 > p1 then
          Err.invalidf "column split: gap between ranges %d and %d" (k - 1) k;
        if c0 <= p0 then
          Err.invalidf "column split: ranges must advance monotonically"
      end)
    ranges;
  let class_name = Option.value class_name ~default:"Split" in
  let outs = out_names parts in
  let make_behaviour () =
    let x = ref 0 in
    let target k =
      let c0, c1 = ranges.(k) in
      !x >= c0 && !x < c1
    in
    (* The targets depend on the cursor, so the rule checks their space
       itself. *)
    let rec targets_free (p : Behaviour.ports) k =
      k >= parts
      || ((not (target k)) || p.ix_space k >= 1) && targets_free p (k + 1)
    in
    let route_column (p : Behaviour.ports) =
      let img = Item.chunk_exn (p.ix_pop 0) in
      (* Overlap columns go to two stripes; each channel must own its
         chunk, so stripes beyond the first get pool-backed copies. *)
      let first = ref true in
      for k = 0 to parts - 1 do
        if target k then begin
          let chunk =
            if !first then img
            else begin
              let d = p.ix_acquire (Image.size img) in
              Image.blit ~src:img ~dst:d ~x:0 ~y:0;
              d
            end
          in
          first := false;
          p.ix_push k (Item.data chunk)
        end
      done;
      x := (!x + 1) mod w
    in
    Behaviour.of_rules
      [
        broadcast ~ways:parts (fun () -> x := 0);
        One
          {
            name = "routeColumn";
            cycles = Costs.split;
            pops = [| (0, Behaviour.k_data) |];
            outs = Array.init parts Fun.id;
            need = 0;
            guard = (fun p -> targets_free p 0);
            fire = route_column;
          };
      ]
  in
  Spec.v ~role:Spec.Split ~class_name ~parallelization:Spec.Serial
    ~inputs:[ Port.input "in" Window.pixel ]
    ~outputs:(List.map (fun o -> Port.output o Window.pixel) outs)
    ~methods:[] ~make_behaviour ()

let replicate ?class_name ~window () =
  let class_name = Option.value class_name ~default:"Replicate" in
  let make_behaviour () =
    Behaviour.of_rules
      [
        One
          {
            name = "copy";
            cycles = 1;
            pops = [| (0, Behaviour.k_any) |];
            outs = [| 0 |];
            need = 1;
            guard = Behaviour.always;
            fire = (fun p -> p.ix_push 0 (p.ix_pop 0));
          };
      ]
  in
  Spec.v ~role:Spec.Replicate ~class_name ~parallelization:Spec.Serial
    ~inputs:[ Port.input "in" window ]
    ~outputs:[ Port.output "out" window ]
    ~methods:[] ~make_behaviour ()

(* Window-origin counts per stripe when splitting a frame into [parts]
   column stripes. *)
let origin_counts ~frame_w ~(window : Window.t) ~parts =
  let w = window.Window.size.Size.w and sx = window.Window.step.Step.sx in
  if frame_w < w then
    Err.invalidf "stripe_ranges: frame width %d below window %d" frame_w w;
  let n = ((frame_w - w) / sx) + 1 in
  if n < parts then
    Err.invalidf "stripe_ranges: only %d window columns for %d stripes" n
      parts;
  Array.init parts (fun k -> (n * (k + 1) / parts) - (n * k / parts))

let stripe_ranges ~frame_w ~window ~parts =
  let counts = origin_counts ~frame_w ~window ~parts in
  let w = window.Window.size.Size.w and sx = window.Window.step.Step.sx in
  let ranges = Array.make parts (0, 0) in
  let first = ref 0 in
  Array.iteri
    (fun k cnt ->
      let o_first = !first * sx and o_last = (!first + cnt - 1) * sx in
      let a = o_first and b = o_last + w in
      ranges.(k) <- (a, b);
      first := !first + cnt)
    counts;
  (* Stretch the last stripe to the frame edge so every input column has a
     home even when the step leaves unused trailing columns. *)
  (let a, _ = ranges.(parts - 1) in
   ranges.(parts - 1) <- (a, frame_w));
  ranges

let stripe_windows_per_row ~frame_w ~window ~ranges =
  ignore frame_w;
  let w = window.Window.size.Size.w and sx = window.Window.step.Step.sx in
  Array.map (fun (a, b) -> ((b - a - w) / sx) + 1) ranges
