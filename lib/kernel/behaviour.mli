(** Kernel runtime behaviours.

    A behaviour is the executable half of a kernel: a [try_step] function
    the simulator calls when the kernel's processor is free. One step either
    fires one method (consuming input items, producing output items, and
    reporting the cycles spent) or reports that the kernel cannot progress.

    A kernel states its firing logic once, as a table of {!rule}s — the
    paper's methods with their trigger inputs, outputs and static cost
    (Section II). {!of_rules} derives from that table all three views the
    engines use: the generic [try_step], the [starved] decline oracle and
    the slot-indexed path of quasi-static execution. All three see the
    kernel's channels through one {!ports}.

    {!iteration_kernel} builds the rule table of an ordinary per-iteration
    kernel (convolution, subtract, histogram, ...) from its method specs.
    It implements the paper's control-token semantics:

    - a data method fires when every trigger input has a data chunk at the
      front of its queue;
    - when every trigger input of a method instead has the *same kind* of
      control token at the front, the token is consumed once from each and
      either dispatched to a registered [On_token] method (the histogram's
      [finishCount]) or automatically forwarded to the method's outputs
      (Section II-C: kernels only pay attention to the tokens they care
      about);
    - mixed fronts (data on one input, token on another) block until the
      streams re-align, which the compiler's alignment pass guarantees will
      happen. *)

type ports = {
  ix_peek : int -> Item.t;
      (** Front of input ordinal [i], without consuming. Raises if empty. *)
  ix_pop : int -> Item.t;
      (** Consume the front of input ordinal [i]. The engine raises
          [Graph_malformed] naming the node when it is empty. *)
  ix_push : int -> Item.t -> unit;
      (** Append to output ordinal [j], on every fan-out channel. The
          caller must have checked {!field-ix_space}; the engine raises
          [Graph_malformed] naming the node on a full channel. *)
  ix_space : int -> int;
      (** Free item slots on output ordinal [j] — the minimum across its
          fan-out channels ([max_int] when it has none). *)
  ix_has : int -> bool;
      (** Whether input ordinal [i] has a front item. Free of allocation:
          the decline oracles call it on every skipped examination. *)
  ix_acquire : Bp_geometry.Size.t -> Bp_image.Image.t;
      (** An all-zero chunk of the given extent, recycled from the
          engine's pool when one is idle. The caller owns it: push it
          onward or {!field-ix_release} it. *)
  ix_release : Bp_image.Image.t -> unit;
      (** Return a chunk whose ownership ended here (popped and not
          forwarded, or acquired and discarded) to the engine's pool. The
          allocation-naive reference engine wires this to [ignore]. *)
}
(** A kernel's channels, by port ordinal: the position in the spec's
    declaration order, as reported by {!Spec.input_ordinal} and
    {!Spec.output_ordinal}. It is the only way a kernel sees its channels.
    The engine builds one [ports] per node at setup and counts the words
    each pop and push moves; a firing dispatched through it performs no
    name hashing and allocates no closure. *)

(** {1 Firing rules} *)

type kinds = int
(** A set of item kinds, the union of {!k_data}, {!k_eol}, {!k_eof} and
    {!k_user}. *)

val k_data : kinds
val k_eol : kinds
val k_eof : kinds
val k_user : kinds
val k_token : kinds
(** Any control token. *)

val k_any : kinds

type rule = {
  name : string;  (** The method name a firing reports. *)
  cycles : int;  (** Compute cycles one firing costs. *)
  pops : (int * kinds) array;
      (** The input ordinals one firing pops, in pop order, each with the
          item kinds allowed at its front. Every token among the fronts
          must have the same kind (the copies of one token). *)
  outs : int array;
      (** The output ordinals the firing may push to. *)
  need : int;
      (** Free slots each of [outs] must have before firing. [0] for a
          rule that pushes nothing, or whose targets depend on its state
          (a column router) and which therefore checks space itself in
          [guard]. *)
  guard : ports -> bool;
      (** The private-state precondition (a pending window, a cursor
          position, a token kind). It sees the fronts, which may be
          absent, and must not mutate anything. *)
  fire : ports -> unit;
      (** The one body of the method: pop [pops], push, update state. *)
}
(** One firing rule of a kernel, written once against the slot-indexed
    {!ports}. *)

val always : ports -> bool
(** The guard of a rule without private precondition. *)

(** One entry of a rule table. *)
type entry =
  | One of rule
  | Turn of int ref * rule array
      (** [Turn (turn, members)]: only [members.(!turn)] may fire — the
          per-branch rules of a round-robin distributor or collector.
          The members' guards need not test the turn; a step looks up the
          member holding it instead of trying each one, so the cost does
          not grow with the number of branches. *)

type fired = { method_name : string; cycles : int }
(** Accounting result of a successful step. Words moved are counted by the
    simulator inside [pop]/[push]. *)

type indexed = {
  op_of : method_name:string -> pops:int array -> pushes:int array -> int;
      (** Resolve a firing-table entry (method name, pop input ordinals in
          pop order, push output ordinals in push order) to a behaviour op
          code, or [-1] when the entry cannot take the indexed path (the
          engine then falls back to the generic [try_step]). *)
  space_need : int -> int;
      (** Free slots the generic path demands on each checked output
          before firing op — the engine reproduces the check exactly. *)
  space_outs : int -> int array;
      (** Output ordinals the generic path space-checks before firing op.
          May be [[||]] for ops that re-check space themselves inside
          {!field-fire_indexed}; such ops are never batch-armed. *)
  fire_indexed : ports -> int -> fired option;
      (** Execute one firing of op, given that the engine has verified
          the entry's pop fronts (presence and item kind) and the
          [space_outs]/[space_need] condition; [None], mutation-free,
          when a private-state precondition fails (the engine then falls
          back to the generic path for that firing). *)
}
(** The closure-free fast path a behaviour may expose for quasi-static
    execution (docs/PERFORMANCE.md §"Quasi-static execution"). Op codes
    are private to the behaviour; the engine obtains them through
    [op_of] when it resolves a node's firing table. *)

type t = {
  try_step : ports -> fired option;
  starved : (ports -> bool) option;
      (** Exact decline oracle: [starved p = true] implies that
          [try_step p] returns [None] without mutating anything. The
          simulator's quasi-static executor uses it to skip attempts and
          to elide processor wake events (docs/PERFORMANCE.md). [None]
          means the kernel is always re-attempted. *)
  indexed : indexed option;
      (** Slot-indexed fast path; [None] keeps every firing on the
          generic [try_step]. *)
}

val of_rules : entry list -> t
(** [of_rules entries] is the behaviour of a kernel whose firing logic is
    the rule table [entries], in priority order. All three fields derive
    from the one table:

    - [try_step] fires the first rule whose guard holds, whose inputs are
      all present with allowed kinds and whose [outs] have [need] free
      slots each. A rule with a single pop tests that front before its
      guard; any other rule runs its guard first; space is asked last, so
      [ix_space] is called only for a rule that could otherwise fire. The
      combinator allocates nothing per step.
    - [starved] holds when no rule has its [guard] holding with all its
      inputs present — the part of the [try_step] test that space and
      front kinds cannot undo, so it implies a decline.
    - [indexed]: op [i] is the [i]-th rule of the table, turn members
      counted one by one. [op_of] picks the first rule with the entry's
      method name and pop ordinals whose [outs] contain every push;
      [space_outs] is the rule's [outs] ([[||]] when [need] is 0) and
      [space_need] its [need]; [fire_indexed] re-checks the turn and the
      guard and fires the body.

    In a kernel that may be statically scheduled, a rule whose guard and
    fronts hold must be the only one that can fire: the engine proves a
    decline from the output space of the rule its firing table expects
    next. (Kernels with two data-triggered methods are never statically
    scheduled.) *)

val v : (ports -> fired option) -> t
(** A hand-rolled behaviour: no decline oracle, no indexed path. *)

val forward_method_name : string
(** The pseudo-method name reported when a step merely forwarded an
    unhandled control token. *)

(** {1 Iteration kernels} *)

type alloc = Bp_geometry.Size.t -> Bp_image.Image.t
(** How a method body obtains output chunks: wired to {!field-ix_acquire} by
    {!iteration_kernel}, so steady-state firings recycle instead of
    allocating. Bodies must treat the result as all-zero scratch they now
    own. *)

type data_run =
  alloc:alloc ->
  (string * Bp_image.Image.t) list ->
  (string * Bp_image.Image.t) list
(** A data method body: consumed chunks keyed by input name, in trigger
    order, to produced chunks keyed by output name (at most one per output;
    outputs may be omitted). Ownership contract: every returned chunk is
    transferred to the runtime; every input chunk not returned (by physical
    identity) is released back to the pool after the body runs — so a body
    must not stash an input image in its state (copy or blit it instead),
    and must obtain fresh outputs from [alloc], never from a captured
    cache. *)

type token_run =
  alloc:alloc -> Bp_token.Token.t -> (string * Bp_image.Image.t) list
(** A token method body (e.g. emit the finished histogram on EOF). Same
    ownership contract for returned chunks as {!data_run}. *)

type indexed_run =
  alloc:alloc ->
  inputs:Bp_image.Image.t array ->
  outputs:Bp_image.Image.t array ->
  unit
(** A slot-indexed data method body: [inputs] holds the consumed chunks in
    trigger-declaration order; the body stores at most one produced chunk
    per declared output into [outputs] (same declaration order), leaving
    {!no_image} in slots it does not produce. Both arrays are preallocated
    scratch owned by the wrapper — a body must not retain them. Ownership
    of chunks is as in {!data_run}: inputs not stored into [outputs] (by
    physical identity) are released after the body runs. *)

val no_image : Bp_image.Image.t
(** Sentinel filling {!indexed_run} scratch slots: physical equality with
    it means "no chunk here". Never pushed, never released. *)

val iteration_kernel :
  ?token_forward_cycles:int ->
  methods:Method_spec.t list ->
  ?run:(string -> data_run) ->
  port_order:string list * string list ->
  ?run_indexed:(string -> indexed_run) ->
  ?token_run:(string -> token_run) ->
  unit ->
  t
(** [iteration_kernel ~methods ~run ~port_order:(inputs, outputs) ()]
    builds the standard wrapper with {!of_rules}: per data method, in order, a rule firing its body, one
    per token method handling a kind on its trigger inputs, and one
    forwarding any other token. [run m] is invoked for [On_data] method
    [m]; [token_run m] for [On_token] method [m] (defaults to producing
    nothing). [token_forward_cycles] (default 2) is the cost of
    auto-forwarding an unhandled token. State is whatever the closures
    capture — callers allocate fresh state per behaviour instance.
    [inputs] and [outputs] name the kernel's ports in spec declaration
    order, which fixes the ordinal of each.

    [run_indexed m] supplies the array-based body for [On_data] method [m]
    instead of [run], which is otherwise adapted onto that form. At least
    one of [run] / [run_indexed] must be given. *)
