open Bp_kernel
open Bp_geometry
module Image = Bp_image.Image
module Token = Bp_token.Token
module Err = Bp_util.Err

(* A rule popping one item of [kinds] from "in". *)
let on_in name cycles kinds ~outs ~need ~guard fire =
  Behaviour.One
    { name; cycles; pops = [| (0, kinds) |]; outs; need; guard; fire }

(* User tokens pass through in order with the data. *)
let forward_user =
  on_in "forwardUser" 1 Behaviour.k_user ~outs:[| 0 |] ~need:1
    ~guard:Behaviour.always (fun p -> p.ix_push 0 (p.ix_pop 0))

let inset ?class_name ?(chunk = Window.pixel) ~grid ~left ~right ~top ~bottom
    () =
  if left < 0 || right < 0 || top < 0 || bottom < 0 then
    Err.invalidf "inset margins must be non-negative";
  if left + right >= grid.Size.w || top + bottom >= grid.Size.h then
    Err.invalidf "inset margins (%d,%d,%d,%d) consume the whole %s grid" left
      right top bottom (Size.to_string grid);
  let class_name =
    Option.value class_name
      ~default:
        (Printf.sprintf "Inset (%d,%d)[%d,%d,%d,%d]" grid.Size.w grid.Size.h
           left right top bottom)
  in
  let make_behaviour () =
    let x = ref 0 and y = ref 0 and frame_idx = ref 0 in
    let keep_now () =
      !x >= left
      && !x < grid.Size.w - right
      && !y >= top
      && !y < grid.Size.h - bottom
    in
    let advance_cursor () =
      x := !x + 1;
      if !x = grid.Size.w then begin
        x := 0;
        y := !y + 1
      end
    in
    let filter (p : Behaviour.ports) =
      let img = Item.chunk_exn (p.ix_pop 0) in
      if keep_now () then p.ix_push 0 (Item.data img) else p.ix_release img;
      advance_cursor ()
    in
    (* The two shapes of [filter]: drop (no push) is listed first, so that
       a recorded firing that pushed nothing resolves to it, not to keep. *)
    Behaviour.of_rules
      [
        on_in "filter" Costs.inset Behaviour.k_data ~outs:[||] ~need:0
          ~guard:(fun _ -> not (keep_now ()))
          filter;
        on_in "filter" Costs.inset Behaviour.k_data ~outs:[| 0 |] ~need:1
          ~guard:(fun _ -> keep_now ())
          filter;
        on_in "consumeEol" 1 Behaviour.k_eol ~outs:[||] ~need:0
          ~guard:Behaviour.always (fun p -> ignore (p.ix_pop 0));
        on_in "emitEof" 2 Behaviour.k_eof ~outs:[| 0 |] ~need:1
          ~guard:Behaviour.always (fun p ->
            ignore (p.ix_pop 0);
            p.ix_push 0 (Item.ctl (Token.eof !frame_idx));
            x := 0;
            y := 0;
            incr frame_idx);
        forward_user;
      ]
  in
  Spec.v ~role:Spec.Inset ~class_name ~parallelization:Spec.Serial
    ~inputs:[ Port.input "in" chunk ]
    ~outputs:[ Port.output "out" chunk ]
    ~methods:[] ~make_behaviour ()

let pad ?class_name ?(value = 0.) ~frame ~left ~right ~top ~bottom () =
  if left < 0 || right < 0 || top < 0 || bottom < 0 then
    Err.invalidf "pad margins must be non-negative";
  let out_w = frame.Size.w + left + right in
  let out_h = frame.Size.h + top + bottom in
  let class_name =
    Option.value class_name
      ~default:(Printf.sprintf "Pad [%d,%d,%d,%d]" left right top bottom)
  in
  let make_behaviour () =
    (* Cursor over the *padded* grid; positions inside the original frame
       require an input pixel, margin positions emit the constant. *)
    let ox = ref 0 and oy = ref 0 and frame_idx = ref 0 in
    let in_margin () =
      !ox < left
      || !ox >= left + frame.Size.w
      || !oy < top
      || !oy >= top + frame.Size.h
    in
    let seen_input = ref false in
    let advance (p : Behaviour.ports) =
      let end_of_row = !ox = out_w - 1 in
      let end_of_frame = end_of_row && !oy = out_h - 1 in
      if end_of_row then begin
        p.ix_push 0 (Item.ctl (Token.eol !oy));
        ox := 0;
        if end_of_frame then begin
          p.ix_push 0 (Item.ctl (Token.eof !frame_idx));
          oy := 0;
          incr frame_idx
        end
        else oy := !oy + 1
      end
      else ox := !ox + 1;
      if end_of_frame then seen_input := false
    in
    let front_is_token (p : Behaviour.ports) =
      p.ix_has 0 && Item.is_ctl (p.ix_peek 0)
    in
    Behaviour.of_rules
      [
        (* Input tokens are informational here — the output schedule
           below emits this kernel's own tokens for the padded geometry —
           so they are consumed eagerly whenever they reach the front. *)
        on_in "consumeToken" 1
          Behaviour.(k_eol lor k_eof)
          ~outs:[||] ~need:0 ~guard:Behaviour.always
          (fun p -> ignore (p.ix_pop 0));
        forward_user;
        (* Only emit margins of a frame whose data has started arriving,
           otherwise an exhausted input would trigger margins of a frame
           that never comes. *)
        One
          {
            name = "emitPad";
            cycles = Costs.pad;
            pops = [||];
            outs = [| 0 |];
            need = 3;
            guard =
              (fun p ->
                in_margin ()
                && (not (front_is_token p))
                && (!seen_input || p.ix_has 0));
            fire =
              (fun p ->
                let px = p.ix_acquire Size.one in
                Image.set px ~x:0 ~y:0 value;
                p.ix_push 0 (Item.data px);
                advance p);
          };
        on_in "forward" Costs.pad Behaviour.k_data ~outs:[| 0 |] ~need:3
          ~guard:(fun _ -> not (in_margin ()))
          (fun p ->
            p.ix_push 0 (p.ix_pop 0);
            seen_input := true;
            advance p);
      ]
  in
  Spec.v ~role:Spec.Pad ~class_name ~parallelization:Spec.Serial
    ~inputs:[ Port.input "in" Window.pixel ]
    ~outputs:[ Port.output "out" Window.pixel ]
    ~methods:[] ~make_behaviour ()
