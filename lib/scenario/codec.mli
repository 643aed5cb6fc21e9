(** The line codec shared by [#scenario v1] spec files ({!Spec}) and
    [#plan v1] plan files ({!Compile}), and the [V@R] / [U-V@R] / [U-V]
    token grammar the CLI's fault flags parse with too.

    A file is a sequence of lines; blank lines and lines starting with
    [#] are skipped.  Every other line is a directive word followed by
    space-separated tokens, each either bare ([3@40]) or [key=value].
    Errors name the 1-based line: ["<label> line N: <msg>"].

    The directives both formats carry — [graph], [dup], [delay],
    [budget], [workload] — are parsed and printed here, once, with
    the graph-independent checks both formats run on their values. *)

type line = {
  key : string;  (** the directive word *)
  args : string list;  (** the tokens after it, as written *)
  kv : (string * string) list;
      (** the same tokens split at the first [=]; a bare token maps to [""] *)
}

val ( let* ) : ('a, 'e) result -> ('a -> ('b, 'e) result) -> ('b, 'e) result
(** [Result.bind], for the parsers and checks built on this module. *)

val fold :
  label:string -> ('a -> line -> ('a, string) result) -> 'a -> string -> ('a, string) result
(** [fold ~label step init text] threads [init] through [step] over
    [text]'s directive lines, stopping at the first [Error msg] as
    [Error "<label> line N: <msg>"]. *)

val render : string list -> string
(** Each line followed by a newline. *)

val load : (string -> ('a, string) result) -> string -> ('a, string) result
(** Read a whole file and parse it; an unreadable file is
    [Error msg] with the system's message. *)

val save : ('a -> string) -> 'a -> string -> unit

val unknown : line -> ('a, string) result
(** [Error "unknown directive \"KEY\""]. *)

(** {1 Fields} *)

val typed : (string -> 'a option) -> string -> line -> ('a, string) result
(** The [k=v] value converted; [Error "missing k="] when absent,
    [Error "bad k=\"v\""] when the conversion fails. *)

val int : string -> line -> (int, string) result
val float : string -> line -> (float, string) result

val dist : string -> line -> (Dsl.t, string) result
(** A {!Dsl} distribution; errors are {!Dsl.parse}'s. *)

val optional :
  (string -> line -> ('a, string) result) -> string -> line -> ('a option, string) result
(** [None] when the key is absent; a present but bad value is an error. *)

val args : (string -> 'a option) -> line -> ('a list, string) result
(** Every bare token converted; [Error "bad KEY \"tok\""] on the first
    that fails. *)

val arg : (string -> 'a option) -> line -> ('a, string) result
(** Exactly one token, as {!args}. *)

(** {1 Tokens}

    Shared with the CLI's [--crash], [--restart], [--join] ([V@R]),
    [--edge-drop], [--edge-up] ([U-V@R]), [--partition] ([U-V]) and
    [query U,V].  Surrounding blanks are ignored. *)

val int_pair : char -> string -> (int * int) option
(** Two integers around one separator. *)

val pair : char -> (string -> 'a option) -> (string -> 'b option) -> string -> ('a * 'b) option

val at : string -> (int * int) option
(** [V@R]: a node and a round. *)

val edge : string -> (int * int) option
(** [U-V]. *)

val edge_at : string -> ((int * int) * int) option
(** [U-V@R]: an edge and a round. *)

val at_to_string : int * int -> string
val edge_to_string : int * int -> string
val edge_at_to_string : (int * int) * int -> string

(** {1 Shared directives}

    Each [X] parses a directive line and each [X_line] prints one,
    byte for byte as the parser reads it back; the optional ones print
    nothing when the ingredient is off. *)

val graph : p:float -> line -> (string * int * float * int, string) result
(** [graph kind=K n=N [p=P] seed=S] as [(kind, n, p, seed)]; [~p] is
    the value when [p=] is absent. *)

val graph_line : kind:string -> n:int -> p:float -> seed:int -> string

val dup : line -> (float, string) result
(** [dup RATE]. *)

val dup_line : float -> string list

val delay : max_delay:int -> line -> (float * int, string) result
(** [delay p=P [max=K]] as [(p, max_delay)]; [~max_delay] is the value
    when [max=] is absent. *)

val delay_line : delay:float -> max_delay:int -> string list

val budget : line -> (int, string) result
(** [budget rounds=R]. *)

val budget_line : int option -> string list

val workload : line -> (Serve.Workload.spec, string) result
(** [workload queries=Q [zipf=S] route=F]; other keys (a plan's
    [seed=]) are left to the caller. *)

val workload_line : ?seed:int -> Serve.Workload.spec option -> string list
(** With [~seed], a trailing [seed=N] token. *)

(** {1 Shared checks}

    [Ok ()] or [Error msg] naming the field, as {!Spec.validate}
    reports it. *)

val check : bool -> ('a, unit, string, (unit, string) result) format4 -> 'a
(** [check ok fmt ...] is [Ok ()] when [ok], else the formatted error. *)

val rate : string -> float -> (unit, string) result
(** In [[0,1]]. *)

val check_graph : n:int -> p:float -> (unit, string) result
(** [n >= 2], [p] a rate. *)

val check_delay : dup:float -> delay:float -> max_delay:int -> (unit, string) result
(** [dup] and [delay] rates, [max_delay >= 1]. *)

val check_budget : int option -> (unit, string) result
(** [>= 1]. *)

val check_workload : Serve.Workload.spec option -> (unit, string) result
(** [queries >= 1], [route] a rate, [zipf] not negative. *)
