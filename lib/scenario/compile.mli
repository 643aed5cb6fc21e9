(** Sampling a scenario family into one concrete, replayable plan.

    [compile spec ~sample] draws every probabilistic ingredient of the
    spec — storm seeds and contagion, link-flap schedule, bursty-loss
    segments — from a PRNG derived from [(spec.graph_seed, sample)]
    alone, producing a {!plan}: a fully explicit
    {!Distnet.Fault.spec} plus the graph parameters, fault seed, and
    workload needed to re-run it.  The same spec and sample always
    compile to the same plan, byte for byte ({!to_string} is
    canonical), which is what makes a shrunk failing plan a durable
    reproducer: the plan file, not the scenario, is the artifact a
    bug report carries. *)

type plan = {
  scenario : string;  (** the spec this was sampled from *)
  sample : int;
  kind : string;
  n : int;
  p : float;
  graph_seed : int;  (** concrete per-sample seed *)
  fault_seed : int;  (** seeds the engine's per-message decisions *)
  fspec : Distnet.Fault.spec;
  budget_rounds : int option;
  workload : Serve.Workload.spec option;
  workload_seed : int;
}

val generate : kind:string -> n:int -> p:float -> seed:int -> Graphlib.Graph.t
(** The one graph-family dispatch, shared with the CLI's [--kind]:
    [gnp], [gnp-raw], [torus], [king], [hypercube], [pa], [path],
    [cycle].  Grid and hypercube sizes round [n] to the nearest square
    or power of two.  @raise Failure on an unknown kind. *)

val graph_of : plan -> Graphlib.Graph.t
(** Regenerate the plan's graph with {!generate}. *)

val compile : Spec.t -> sample:int -> plan
(** Sample number [sample] of the family.  Graph-dependent draws
    (storm contagion, which link flaps) regenerate the graph
    internally.  @raise Invalid_argument on a spec {!Spec.validate}
    rejects. *)

val faults : graph:Graphlib.Graph.t -> plan -> Distnet.Fault.t
(** The plan's engine-ready fault plan — [Fault.make] on the plan's
    spec and seed, validated against the graph. *)

(** {1 Plan files}

    Line-oriented like scenario specs ([#plan v1] header); one fault
    ingredient per line, crash and churn events one per line so a
    shrinker's diff is a line diff. *)

val to_string : plan -> string
(** Canonical: [parse (to_string p) = Ok p], same bytes for the same
    plan. *)

val parse : string -> (plan, string) result
val load : string -> (plan, string) result
val save : plan -> string -> unit
