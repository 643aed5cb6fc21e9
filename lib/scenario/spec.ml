type loss =
  | No_loss
  | Iid of float
  | Bursty of { ge : Dsl.ge; horizon : int }

type storm = {
  frac : float;
  spread : float;
  round_lo : int;
  round_hi : int;
  down : Dsl.t option;
}

type churn = {
  events : Dsl.t;
  gap : Dsl.t;
  skew : float;
  down_for : Dsl.t;
}

type t = {
  name : string;
  kind : string;
  n : int;
  p : float;
  graph_seed : int;
  loss : loss;
  dup : float;
  delay : float;
  max_delay : int;
  storm : storm option;
  churn : churn option;
  budget_rounds : int option;
  workload : Serve.Workload.spec option;
}

let default =
  {
    name = "default";
    kind = "gnp";
    n = 64;
    p = 0.12;
    graph_seed = 11;
    loss = No_loss;
    dup = 0.;
    delay = 0.;
    max_delay = 3;
    storm = None;
    churn = None;
    budget_rounds = None;
    workload = None;
  }

let ( let* ) = Result.bind

let dist field d =
  match Dsl.validate d with
  | Ok () -> Ok ()
  | Error msg -> Error (Printf.sprintf "%s: %s" field msg)

let validate s =
  let* () =
    Codec.check
      (s.name <> "" && not (String.contains s.name ' '))
      "name %S empty or contains spaces" s.name
  in
  let* () = Codec.check_graph ~n:s.n ~p:s.p in
  let* () =
    match s.loss with
    | No_loss -> Ok ()
    | Iid r -> Codec.rate "loss rate" r
    | Bursty { ge; horizon } ->
        let* () = Codec.check (horizon >= 1) "loss horizon %d < 1" horizon in
        Dsl.ge_validate ge
  in
  let* () = Codec.check_delay ~dup:s.dup ~delay:s.delay ~max_delay:s.max_delay in
  let* () =
    match s.storm with
    | None -> Ok ()
    | Some st ->
        let* () = Codec.rate "storm frac" st.frac in
        let* () = Codec.rate "storm spread" st.spread in
        let* () =
          Codec.check
            (st.round_lo >= 1 && st.round_hi >= st.round_lo)
            "storm rounds %d..%d not a window within 1.." st.round_lo st.round_hi
        in
        (match st.down with None -> Ok () | Some d -> dist "storm down" d)
  in
  let* () =
    match s.churn with
    | None -> Ok ()
    | Some c ->
        let* () = dist "churn events" c.events in
        let* () = dist "churn gap" c.gap in
        let* () = dist "churn down" c.down_for in
        let* () = Codec.check (c.skew >= 0.) "churn skew %g negative" c.skew in
        Codec.check
          (not (Dsl.mean c.events > 10_000.))
          "churn events mean %g unreasonably large" (Dsl.mean c.events)
  in
  let* () = Codec.check_budget s.budget_rounds in
  Codec.check_workload s.workload

(* ------------------------------------------------------------------ *)
(* Text form *)

let fstr = Dsl.fstr

let to_string s =
  Codec.render
    ([
       "#scenario v1";
       "name " ^ s.name;
       Codec.graph_line ~kind:s.kind ~n:s.n ~p:s.p ~seed:s.graph_seed;
     ]
    @ (match s.loss with
      | No_loss -> []
      | Iid r -> [ "loss iid rate=" ^ fstr r ]
      | Bursty { ge; horizon } ->
          [
            Printf.sprintf "loss ge pgb=%s pbg=%s good=%s bad=%s horizon=%d"
              (fstr ge.Dsl.p_gb) (fstr ge.Dsl.p_bg) (fstr ge.Dsl.loss_good)
              (fstr ge.Dsl.loss_bad) horizon;
          ])
    @ Codec.dup_line s.dup
    @ Codec.delay_line ~delay:s.delay ~max_delay:s.max_delay
    @ (match s.storm with
      | None -> []
      | Some st ->
          [
            Printf.sprintf "storm frac=%s spread=%s rounds=%d..%d%s" (fstr st.frac)
              (fstr st.spread) st.round_lo st.round_hi
              (match st.down with None -> "" | Some d -> " down=" ^ Dsl.to_string d);
          ])
    @ (match s.churn with
      | None -> []
      | Some c ->
          [
            Printf.sprintf "churn events=%s gap=%s skew=%s down=%s"
              (Dsl.to_string c.events) (Dsl.to_string c.gap) (fstr c.skew)
              (Dsl.to_string c.down_for);
          ])
    @ Codec.budget_line s.budget_rounds
    @ Codec.workload_line s.workload)

(* A storm's [rounds=LO..HI]. *)
let window v =
  match String.split_on_char '.' v with
  | [ lo; ""; hi ] -> (
      match (int_of_string_opt lo, int_of_string_opt hi) with
      | Some lo, Some hi -> Some (lo, hi)
      | _ -> None)
  | _ -> None

(* One directive line applied to the spec read so far; the flag
   records whether a [name] line has been seen. *)
let directive (s, named) (l : Codec.line) =
  let open Codec in
  let set s = Ok (s, named) in
  match l.key with
  | "name" ->
      let* name = arg Option.some l in
      Ok ({ s with name }, true)
  | "graph" ->
      let* kind, n, p, graph_seed = graph ~p:s.p l in
      set { s with kind; n; p; graph_seed }
  | "loss" -> (
      match l.args with
      | "iid" :: _ ->
          let* r = float "rate" l in
          set { s with loss = Iid r }
      | "ge" :: _ ->
          let* p_gb = float "pgb" l in
          let* p_bg = float "pbg" l in
          let* loss_good = float "good" l in
          let* loss_bad = float "bad" l in
          let* horizon = int "horizon" l in
          set { s with loss = Bursty { ge = { Dsl.p_gb; p_bg; loss_good; loss_bad }; horizon } }
      | _ -> Error "loss wants 'iid rate=R' or 'ge ...'")
  | "dup" ->
      let* dup = dup l in
      set { s with dup }
  | "delay" ->
      let* delay, max_delay = delay ~max_delay:s.max_delay l in
      set { s with delay; max_delay }
  | "storm" ->
      let* frac = float "frac" l in
      let* spread = float "spread" l in
      let* round_lo, round_hi = typed window "rounds" l in
      let* down = optional dist "down" l in
      set { s with storm = Some { frac; spread; round_lo; round_hi; down } }
  | "churn" ->
      let* events = dist "events" l in
      let* gap = dist "gap" l in
      let* skew = float "skew" l in
      let* down_for = dist "down" l in
      set { s with churn = Some { events; gap; skew; down_for } }
  | "budget" ->
      let* r = budget l in
      set { s with budget_rounds = Some r }
  | "workload" ->
      let* w = workload l in
      set { s with workload = Some w }
  | _ -> unknown l

let parse text =
  let* s, named = Codec.fold ~label:"scenario spec" directive (default, false) text in
  let* () = if named then Ok () else Error "scenario spec: missing 'name' line" in
  match validate s with
  | Ok () -> Ok s
  | Error msg -> Error (Printf.sprintf "scenario spec %s: %s" s.name msg)

let load = Codec.load parse
let save = Codec.save to_string

(* ------------------------------------------------------------------ *)
(* Built-in families *)

let crash_storm =
  {
    default with
    name = "crash-storm";
    loss = Iid 0.02;
    storm =
      Some
        { frac = 0.06; spread = 0.35; round_lo = 1; round_hi = 30; down = None };
  }

let bursty_loss =
  {
    default with
    name = "bursty-loss";
    loss =
      Bursty
        {
          ge = { Dsl.p_gb = 0.05; p_bg = 0.25; loss_good = 0.01; loss_bad = 0.6 };
          horizon = 400;
        };
    dup = 0.01;
    delay = 0.03;
  }

let churn_heavy =
  {
    default with
    name = "churn-heavy";
    loss = Iid 0.02;
    churn =
      Some
        {
          events = Dsl.Geometric 0.12;
          gap = Dsl.Pareto { alpha = 1.5; xm = 4. };
          skew = 1.2;
          down_for = Dsl.Uniform { lo = 10.; hi = 40. };
        };
  }

let mixed =
  {
    default with
    name = "mixed";
    loss =
      Bursty
        {
          ge = { Dsl.p_gb = 0.04; p_bg = 0.3; loss_good = 0.01; loss_bad = 0.5 };
          horizon = 400;
        };
    dup = 0.01;
    delay = 0.03;
    storm =
      Some
        { frac = 0.04; spread = 0.3; round_lo = 5; round_hi = 35; down = None };
    churn =
      Some
        {
          events = Dsl.Geometric 0.25;
          gap = Dsl.Pareto { alpha = 1.6; xm = 5. };
          skew = 1.0;
          down_for = Dsl.Uniform { lo = 10.; hi = 30. };
        };
    workload = Some { Serve.Workload.queries = 200; zipf = Some 1.1; route_frac = 0.25 };
  }

(* Deliberately under-budgeted: the churn tax pushes every sample past
   the round budget, so the sweep must FAIL each one and shrink it to
   a minimal reproducer.  The budget clears a fault-free build of the
   same graph by a wide margin — shrinking converges on the churn, not
   on the base construction. *)
let tight_budget =
  {
    default with
    name = "tight-budget";
    n = 48;
    p = 0.15;
    graph_seed = 5;
    churn =
      Some
        {
          events = Dsl.Const 6.;
          gap = Dsl.Const 12.;
          skew = 1.0;
          down_for = Dsl.Const 30.;
        };
    budget_rounds = Some 100;
  }

(* Crash-recovery storm: the crash-storm contagion under loss, but
   every crashed node draws a downtime and restarts — the sweep then
   exercises incarnation-safe delivery and rejoin repair on every
   sample. *)
let restart_storm =
  {
    default with
    name = "restart-storm";
    loss = Iid 0.02;
    storm =
      Some
        {
          frac = 0.06;
          spread = 0.35;
          round_lo = 1;
          round_hi = 30;
          down = Some (Dsl.Uniform { lo = 20.; hi = 120. });
        };
  }

let builtins =
  [
    ("crash-storm", crash_storm);
    ("bursty-loss", bursty_loss);
    ("churn-heavy", churn_heavy);
    ("mixed", mixed);
    ("restart-storm", restart_storm);
    ("tight-budget", tight_budget);
  ]

let builtin name = List.assoc_opt name builtins
