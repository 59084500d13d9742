open Bp_util
module Token = Bp_token.Token

(* A kernel's channels, by port ordinal (declaration order in the spec),
   so a firing touches no string and allocates no closure. Built once per
   node by the engine. *)
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
  try_step : ports -> fired option;
  starved : (ports -> bool) option;
  indexed : indexed option;
}

let v try_step = { try_step; starved = None; indexed = None }
let forward_method_name = "<forward-token>"

(* ---- firing rules ------------------------------------------------------ *)

let always _ = true

let front_kind (p : ports) i =
  if p.ix_has i then kind_of_item (p.ix_peek i) else 0

(* A rule as the step runs it: its success value built once and, for a
   member of a turn, its index in it (else -1). *)
type prepared = {
  rule : rule;
  fired : fired option;
  member : int;
  turn : int ref;
}

(* The table in priority order: one rule, or the member of a turn that
   holds the turn, found by index rather than by trying every member. *)
type step = Rule_at of int | Turn_from of int ref * int

(* The derivations below are top-level recursions rather than closures on
   purpose: a closure capturing the ports or a rule is allocated afresh on
   every call, and these run on every attempt of the simulator's innermost
   loop. *)

(* Every popped front is present with an allowed kind (0, empty, matches
   none), and every token among them has the kind of the first one (the
   copies of one token). *)
let rec fronts_ok (p : ports) pops first i =
  i >= Array.length pops
  ||
  let slot, kinds = pops.(i) in
  let k = front_kind p slot in
  k land kinds <> 0
  &&
  if k = k_data then fronts_ok p pops first (i + 1)
  else if first < 0 then fronts_ok p pops slot (i + 1)
  else
    Token.kind_equal
      (Item.token_exn (p.ix_peek slot)).Token.kind
      (Item.token_exn (p.ix_peek first)).Token.kind
    && fronts_ok p pops first (i + 1)

let rec space_ok (p : ports) outs need i =
  i >= Array.length outs
  || (p.ix_space outs.(i) >= need && space_ok p outs need (i + 1))

let at (ps : prepared array) = function
  | Rule_at i -> ps.(i)
  | Turn_from (turn, first) -> ps.(first + !turn)

(* [always] is not called: the indirect call costs more than the test. *)
let holds guard ports = guard == always || guard ports

(* A rule with one pop tests that front first, the cheapest test; any
   other rule runs its guard first, which spares a look at fronts it does
   not need. Space comes last, so [ix_space] is asked only of a rule that
   could otherwise fire. *)
let rec attempt p ps (steps : step array) i =
  if i >= Array.length steps then None
  else
    let pr = at ps steps.(i) in
    let r = pr.rule in
    if
      (if Array.length r.pops = 1 then
         let slot, kinds = r.pops.(0) in
         front_kind p slot land kinds <> 0 && holds r.guard p
       else holds r.guard p && fronts_ok p r.pops (-1) 0)
      && (r.need = 0 || space_ok p r.outs r.need 0)
    then begin
      r.fire p;
      pr.fired
    end
    else attempt p ps steps (i + 1)

let rec present (p : ports) pops i =
  i >= Array.length pops
  || (p.ix_has (fst pops.(i)) && present p pops (i + 1))

let rec armed p ps (steps : step array) i =
  i < Array.length steps
  && (let r = (at ps steps.(i)).rule in
      (holds r.guard p && present p r.pops 0) || armed p ps steps (i + 1))

let matches r ~method_name ~pops ~pushes =
  String.equal r.name method_name
  && Array.length pops = Array.length r.pops
  && Array.for_all2 (fun s (slot, _) -> s = slot) pops r.pops
  && Array.for_all (fun o -> Array.mem o r.outs) pushes

let of_rules entries =
  let prepare turn member (r : rule) =
    {
      rule = r;
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
  let try_step p = attempt p ps steps 0 in
  let starved p = not (armed p ps steps 0) in
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

let iteration_kernel ?(token_forward_cycles = 2) ~methods ?run
    ~port_order:(ins, outs) ?run_indexed
    ?(token_run = fun _ ~alloc:_ _ -> []) () =
  let body =
    match (run_indexed, run) with
    | None, None ->
      Err.invalidf "iteration_kernel: neither run nor run_indexed given"
    | Some ri, _ -> fun (m : Method_spec.t) _ -> ri m.Method_spec.name
    | None, Some run -> of_data_run run
  in
  let triggers (m : Method_spec.t) =
    match m.Method_spec.trigger with
    | Method_spec.On_data inputs -> Some (m, inputs)
    | Method_spec.On_token _ -> None
  in
  let data_methods = List.filter_map triggers methods in
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
  of_rules
    (List.concat_map
       (fun m -> List.map (fun r -> One r) (rules_of m))
       data_methods)
