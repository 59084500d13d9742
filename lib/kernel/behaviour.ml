open Bp_util
module Token = Bp_token.Token

type io = {
  peek : string -> Item.t option;
  pop : string -> Item.t;
  push : string -> Item.t -> unit;
  space : string -> int;
  acquire : Bp_geometry.Size.t -> Bp_image.Image.t;
  release : Bp_image.Image.t -> unit;
  has_input : string -> bool;
}

(* The slot-indexed fast path: ring handles preresolved to port ordinals
   (declaration order in the spec) so a tabled firing touches no string
   and allocates no closure. Built once per node by the engine. *)
type ports = {
  ix_peek : int -> Item.t;
  ix_pop : int -> Item.t;
  ix_push : int -> Item.t -> unit;
  ix_space : int -> int;
  ix_has : int -> bool;
  ix_acquire : Bp_geometry.Size.t -> Bp_image.Image.t;
  ix_release : Bp_image.Image.t -> unit;
}

type kinds = int

let k_data = 1
let k_eol = 2
let k_eof = 4
let k_user = 8
let k_token = k_eol lor k_eof lor k_user
let k_any = k_data lor k_token

let kinds_of_token = function
  | Token.End_of_line -> k_eol
  | Token.End_of_frame -> k_eof
  | Token.User _ -> k_user

let kind_of_item = function
  | Item.Data _ -> k_data
  | Item.Ctl tok -> kinds_of_token tok.Token.kind

type rule = {
  name : string;
  cycles : int;
  pops : (int * kinds) array;
  outs : int array;
  need : int;
  guard : ports -> bool;
  fire : ports -> unit;
}

type entry = One of rule | Turn of int ref * rule array

(* Defined after [rule] so that an unqualified [cycles] label still means
   the accounting record's. *)
type fired = { method_name : string; cycles : int }

type indexed = {
  op_of : method_name:string -> pops:int array -> pushes:int array -> int;
  space_need : int -> int;
  space_outs : int -> int array;
  fire_indexed : ports -> int -> fired option;
}

type t = {
  try_step : io -> fired option;
  starved : (io -> bool) option;
  indexed : indexed option;
}

let v try_step = { try_step; starved = None; indexed = None }
let forward_method_name = "<forward-token>"

(* ---- firing rules ------------------------------------------------------ *)

let always _ = true

(* [ports] views of a string-keyed [io]. Each input is looked at once per
   call: [memo] holds what is known of its front (0 empty, -1 present, > 0
   its kind), valid while [stamp] equals the call's [gen]; a pop
   invalidates it. The step view learns presence by peeking, since it will
   mostly need the kind next; the oracle view asks [has_input], so an
   oracle that only tests presence peeks at nothing. *)
type fronts = {
  io : io;
  in_names : string array;
  memo : int array;
  stamp : int array;
  mutable gen : int;
}

type view = { f : fronts; step : ports; oracle : ports }

let peek_exn (io : io) name =
  match io.peek name with
  | Some item -> item
  | None -> Err.graphf "peek on empty input %S" name

let front_kind f i =
  if f.stamp.(i) = f.gen && f.memo.(i) >= 0 then f.memo.(i)
  else begin
    let k =
      match f.io.peek f.in_names.(i) with
      | None -> 0
      | Some item -> kind_of_item item
    in
    f.memo.(i) <- k;
    f.stamp.(i) <- f.gen;
    k
  end

let has_front f i =
  if f.stamp.(i) <> f.gen then begin
    f.memo.(i) <- (if f.io.has_input f.in_names.(i) then -1 else 0);
    f.stamp.(i) <- f.gen
  end;
  f.memo.(i) <> 0

let view_of ins outs io =
  let n = Array.length ins in
  let f =
    {
      io;
      in_names = ins;
      memo = Array.make n 0;
      stamp = Array.make n (-1);
      gen = 0;
    }
  in
  let step =
    {
      ix_peek = (fun i -> peek_exn io ins.(i));
      ix_pop =
        (fun i ->
          f.stamp.(i) <- -1;
          io.pop ins.(i));
      ix_push = (fun j item -> io.push outs.(j) item);
      ix_space = (fun j -> io.space outs.(j));
      ix_has = (fun i -> front_kind f i > 0);
      ix_acquire = io.acquire;
      ix_release = io.release;
    }
  in
  { f; step; oracle = { step with ix_has = has_front f } }

(* A rule as the step runs it: its single pop unpacked (slot -1 when it
   pops none or several), the names of the outputs whose space it needs,
   its success value built once, and, for a member of a turn, its index in
   it (else -1). *)
type prepared = {
  rule : rule;
  slot : int;
  kinds : kinds;
  out_names : string array;
  fired : fired option;
  member : int;
  turn : int ref;
}

(* The table in priority order: one rule, or the member of a turn that
   holds the turn, found by index rather than by trying every member. *)
type step = Rule_at of int | Turn_from of int ref * int

(* The derivations below are top-level recursions rather than closures on
   purpose: a closure capturing a view or a rule is allocated afresh on
   every call, and these run on every attempt of the simulator's innermost
   loop. *)

(* Every popped front is present with an allowed kind (0, empty, matches
   none), and every token among them has the kind of the first one (the
   copies of one token). *)
let rec fronts_ok f pops first i =
  i >= Array.length pops
  ||
  let slot, kinds = pops.(i) in
  let k = front_kind f slot in
  k land kinds <> 0
  &&
  if k = k_data then fronts_ok f pops first (i + 1)
  else if first < 0 then fronts_ok f pops slot (i + 1)
  else
    Token.kind_equal
      (Item.token_exn (peek_exn f.io f.in_names.(slot))).Token.kind
      (Item.token_exn (peek_exn f.io f.in_names.(first))).Token.kind
    && fronts_ok f pops first (i + 1)

let rec space_ok (io : io) names need i =
  i >= Array.length names
  || (io.space names.(i) >= need && space_ok io names need (i + 1))

let at (ps : prepared array) = function
  | Rule_at i -> ps.(i)
  | Turn_from (turn, first) -> ps.(first + !turn)

(* [always] is not called: the indirect call costs more than the test. *)
let holds guard ports = guard == always || guard ports

(* A rule whose one front is already known to hold another kind is
   skipped without its guard; otherwise the guard comes first, as the
   cheapest test, and spares the io a look at fronts it does not need. *)
let rec attempt v ps (steps : step array) i =
  if i >= Array.length steps then None
  else
    let p = at ps steps.(i) and f = v.f in
    let r = p.rule and slot = p.slot in
    if
      (slot < 0
      || f.stamp.(slot) <> f.gen
      || f.memo.(slot) < 0
      || f.memo.(slot) land p.kinds <> 0)
      && holds r.guard v.step
      && (if slot >= 0 then front_kind f slot land p.kinds <> 0
          else fronts_ok f r.pops (-1) 0)
      && space_ok f.io p.out_names r.need 0
    then begin
      r.fire v.step;
      p.fired
    end
    else attempt v ps steps (i + 1)

let rec present f pops i =
  i >= Array.length pops
  || (has_front f (fst pops.(i)) && present f pops (i + 1))

let rec armed v ps (steps : step array) i =
  i < Array.length steps
  && (let r = (at ps steps.(i)).rule in
      (holds r.guard v.oracle && present v.f r.pops 0)
      || armed v ps steps (i + 1))

let matches r ~method_name ~pops ~pushes =
  String.equal r.name method_name
  && Array.length pops = Array.length r.pops
  && Array.for_all2 (fun s (slot, _) -> s = slot) pops r.pops
  && Array.for_all (fun o -> Array.mem o r.outs) pushes

let of_rules ~port_order:(ins, outs) entries =
  let ins = Array.of_list ins and outs = Array.of_list outs in
  let prepare turn member (r : rule) =
    let one = Array.length r.pops = 1 in
    {
      rule = r;
      slot = (if one then fst r.pops.(0) else -1);
      kinds = (if one then snd r.pops.(0) else 0);
      out_names =
        (if r.need = 0 then [||] else Array.map (fun o -> outs.(o)) r.outs);
      fired = Some { method_name = r.name; cycles = r.cycles };
      member;
      turn;
    }
  in
  let no_turn = ref (-1) in
  let ps =
    Array.concat
      (List.map
         (function
           | One r -> [| prepare no_turn (-1) r |]
           | Turn (turn, rs) -> Array.mapi (prepare turn) rs)
         entries)
  in
  let next = ref 0 in
  let take n =
    next := !next + n;
    !next - n
  in
  let steps =
    Array.of_list
      (List.map
         (function
           | One _ -> Rule_at (take 1)
           | Turn (turn, rs) -> Turn_from (turn, take (Array.length rs)))
         entries)
  in
  let view = ref None in
  let view_for io =
    let v =
      match !view with
      | Some v when v.f.io == io -> v
      | _ ->
        let v = view_of ins outs io in
        view := Some v;
        v
    in
    v.f.gen <- v.f.gen + 1;
    v
  in
  let try_step io = attempt (view_for io) ps steps 0 in
  let starved io = not (armed (view_for io) ps steps 0) in
  let op_of ~method_name ~pops ~pushes =
    let rec find i =
      if i >= Array.length ps then -1
      else if matches ps.(i).rule ~method_name ~pops ~pushes then i
      else find (i + 1)
    in
    find 0
  in
  let space_need op = ps.(op).rule.need in
  let space_outs op =
    let r = ps.(op).rule in
    if r.need = 0 then [||] else r.outs
  in
  let fire_indexed ports op =
    let p = ps.(op) in
    if (p.member < 0 || !(p.turn) = p.member) && holds p.rule.guard ports
    then begin
      p.rule.fire ports;
      p.fired
    end
    else None
  in
  {
    try_step;
    starved = Some starved;
    indexed = Some { op_of; space_need; space_outs; fire_indexed };
  }

(* ---- the iteration kernel ---------------------------------------------- *)

type alloc = Bp_geometry.Size.t -> Bp_image.Image.t

type indexed_run =
  alloc:alloc ->
  inputs:Bp_image.Image.t array ->
  outputs:Bp_image.Image.t array ->
  unit

(* Sentinel filling the scratch arrays between firings: a body that leaves
   an output slot physically equal to [no_image] produced nothing there.
   Never pushed, never released. *)
let no_image = Bp_image.Image.create Bp_geometry.Size.one

type data_run =
  alloc:alloc ->
  (string * Bp_image.Image.t) list ->
  (string * Bp_image.Image.t) list

type token_run =
  alloc:alloc -> Bp_token.Token.t -> (string * Bp_image.Image.t) list

let rec check_declared name outs = function
  | [] -> ()
  | (out, _) :: rest ->
    if not (List.mem out outs) then
      Err.graphf "method %s wrote undeclared output %S" name out;
    check_declared name outs rest

(* Store the chunks an assoc-list body returned into the slots of the
   method's declared outputs (first chunk per output wins). *)
let store_results (m : Method_spec.t) results (slots : Bp_image.Image.t array)
    =
  check_declared m.Method_spec.name m.Method_spec.outputs results;
  List.iteri
    (fun j out ->
      match List.assoc_opt out results with
      | Some chunk -> slots.(j) <- chunk
      | None -> ())
    m.Method_spec.outputs

(* The assoc-list [run] body of a data method as an array body. *)
let of_data_run run (m : Method_spec.t) inputs : indexed_run =
 fun ~alloc ~inputs:ins ~outputs ->
  let chunks = List.mapi (fun i input -> (input, ins.(i))) inputs in
  store_results m (run m.Method_spec.name ~alloc chunks) outputs

(* Whether [img] occurs physically in [arr] — a body that forwards an
   input chunk transferred its ownership. *)
let rec phys_mem img (arr : Bp_image.Image.t array) j =
  j < Array.length arr && (arr.(j) == img || phys_mem img arr (j + 1))

let ordinal_of what names name =
  let rec go i = function
    | [] -> Err.graphf "kernel: unknown %s port %S" what name
    | x :: rest -> if String.equal x name then i else go (i + 1) rest
  in
  go 0 names

let rec dedup = function
  | [] -> []
  | x :: rest -> x :: dedup (List.filter (fun y -> not (String.equal x y)) rest)

let iteration_kernel ?(token_forward_cycles = 2) ~methods ?run ?port_order
    ?run_indexed ?(token_run = fun _ ~alloc:_ _ -> []) () =
  let body =
    match (run_indexed, run, port_order) with
    | None, None, _ ->
      Err.invalidf "iteration_kernel: neither run nor run_indexed given"
    | Some _, _, None ->
      Err.invalidf "iteration_kernel: run_indexed requires port_order"
    | Some ri, _, _ -> fun (m : Method_spec.t) _ -> ri m.Method_spec.name
    | None, Some run, _ -> of_data_run run
  in
  let triggers (m : Method_spec.t) =
    match m.Method_spec.trigger with
    | Method_spec.On_data inputs -> Some (m, inputs)
    | Method_spec.On_token _ -> None
  in
  let data_methods = List.filter_map triggers methods in
  (* Without a declared port order the ordinals are private (first use in
     [methods]) and no indexed path is exposed. *)
  let ins, outs =
    match port_order with
    | Some order -> order
    | None ->
      ( dedup (List.concat_map snd data_methods),
        dedup (List.concat_map (fun (m : Method_spec.t) -> m.outputs) methods)
      )
  in
  let in_ords l = Array.of_list (List.map (ordinal_of "input" ins) l) in
  let out_ords l = Array.of_list (List.map (ordinal_of "output" outs) l) in
  let rules_of ((m : Method_spec.t), inputs) =
    let slots = in_ords inputs and m_outs = out_ords m.outputs in
    let pops kinds = Array.map (fun s -> (s, kinds)) slots in
    let body = body m inputs in
    let ins = Array.make (Array.length slots) no_image in
    let outs = Array.make (Array.length m_outs) no_image in
    (* Pop the trigger chunks, run the body, push what it produced in
       declared order, release the inputs it did not forward. *)
    let fire_data (p : ports) =
      for i = 0 to Array.length slots - 1 do
        ins.(i) <- Item.chunk_exn (p.ix_pop slots.(i))
      done;
      body ~alloc:p.ix_acquire ~inputs:ins ~outputs:outs;
      for j = 0 to Array.length m_outs - 1 do
        if outs.(j) != no_image then p.ix_push m_outs.(j) (Item.data outs.(j))
      done;
      for i = 0 to Array.length ins - 1 do
        if not (phys_mem ins.(i) outs 0) then p.ix_release ins.(i);
        ins.(i) <- no_image
      done;
      Array.fill outs 0 (Array.length outs) no_image
    in
    let pop_token (p : ports) =
      let tok = Item.token_exn (p.ix_pop slots.(0)) in
      for i = 1 to Array.length slots - 1 do
        ignore (p.ix_pop slots.(i))
      done;
      tok
    in
    (* The first token method on one of this method's inputs handles its
       kind; any other kind is forwarded to the method's outputs. *)
    let handles kind = List.exists (fun (_, k) -> Token.kind_equal k kind) in
    let handlers =
      List.fold_left
        (fun acc (h : Method_spec.t) ->
          match h.trigger with
          | Method_spec.On_token (input, kind)
            when List.mem input inputs && not (handles kind acc) ->
            acc @ [ (h, kind) ]
          | _ -> acc)
        [] methods
    in
    let front_is kinds (p : ports) =
      p.ix_has slots.(0)
      &&
      match p.ix_peek slots.(0) with
      | Item.Ctl tok -> List.exists (Token.kind_equal tok.Token.kind) kinds
      | Item.Data _ -> false
    in
    let handler ((h : Method_spec.t), kind) =
      let h_outs = out_ords h.outputs in
      let results = Array.make (Array.length h_outs) no_image in
      {
        name = h.name;
        cycles = h.cycles;
        pops = pops (kinds_of_token kind);
        outs = h_outs;
        (* A handler may emit one chunk per output plus the token. *)
        need = 2;
        guard = front_is [ kind ];
        fire =
          (fun p ->
            let tok = pop_token p in
            store_results h (token_run h.name ~alloc:p.ix_acquire tok) results;
            Array.iteri
              (fun j c ->
                if c != no_image then p.ix_push h_outs.(j) (Item.data c))
              results;
            Array.fill results 0 (Array.length results) no_image;
            if h.forward_token then
              Array.iter (fun o -> p.ix_push o (Item.ctl tok)) h_outs);
      }
    in
    {
      name = m.name;
      cycles = m.cycles;
      pops = pops k_data;
      outs = m_outs;
      need = 1;
      guard = always;
      fire = fire_data;
    }
    :: List.map handler handlers
    @ [
        {
          name = forward_method_name;
          cycles = token_forward_cycles;
          pops = pops k_token;
          outs = m_outs;
          need = 1;
          guard =
            (match List.map snd handlers with
            | [] -> always
            | kinds -> fun p -> not (front_is kinds p));
          fire =
            (fun p ->
              let tok = pop_token p in
              Array.iter (fun o -> p.ix_push o (Item.ctl tok)) m_outs);
        };
      ]
  in
  let b =
    of_rules ~port_order:(ins, outs)
      (List.concat_map
         (fun m -> List.map (fun r -> One r) (rules_of m))
         data_methods)
  in
  match port_order with None -> { b with indexed = None } | Some _ -> b
